package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.embed.VectorOps

class PivotSelectionSpec extends AnyFunSuite {

  private def pool(seed: Long, n: Int, dim: Int): IndexedSeq[Array[Double]] = {
    val rng = new Random(seed)
    IndexedSeq.fill(n)(TestData.unitVec(rng, dim))
  }

  test("selects exactly k pivots") {
    val vs = pool(1, 100, 8)
    (1 to 5).foreach { k =>
      assert(PivotSelection.pcaPivots(vs, k).numPivots == k)
    }
  }

  test("pivots are members of the input pool") {
    val vs = pool(2, 80, 6)
    val ps = PivotSelection.pcaPivots(vs, 3)
    ps.pivots.foreach { p =>
      assert(vs.exists(v => VectorOps.euclidean(v, p) < 1e-12))
    }
  }

  test("pivots are pairwise distinct") {
    val vs = pool(3, 120, 8)
    val ps = PivotSelection.pcaPivots(vs, 5)
    val dists = for {
      i <- ps.pivots.indices
      j <- (i + 1) until ps.pivots.length
    } yield VectorOps.euclidean(ps.pivots(i), ps.pivots(j))
    assert(dists.forall(_ > 1e-9))
  }

  test("selection is deterministic") {
    val vs = pool(4, 90, 8)
    val a = PivotSelection.pcaPivots(vs, 4)
    val b = PivotSelection.pcaPivots(vs, 4)
    a.pivots.zip(b.pivots).foreach { case (x, y) => assert(x.toSeq == y.toSeq) }
  }

  test("the first PCA pivot is an outlier along the principal direction") {
    val rng = new Random(5)
    // two elongated clusters => principal direction separates them
    val c1 = TestData.unitVec(rng, 8)
    val c2 = c1.map(-_)
    val vs = IndexedSeq.fill(100)(TestData.near(rng, if (rng.nextBoolean()) c1 else c2, 0.2))
    val ps = PivotSelection.pcaPivots(vs, 1)
    val mean = VectorOps.mean(vs)
    val fromMean = vs.map(v => VectorOps.euclidean(v, mean)).sorted
    val p90 = fromMean((0.9 * fromMean.size).toInt)
    val pivotFromMean = VectorOps.euclidean(ps.pivots(0), mean)
    assert(pivotFromMean >= p90, s"pivot@$pivotFromMean p90=$p90 — not an outlier")
  }

  test("k greater than dim falls back to farthest-first top-up") {
    val vs = pool(6, 40, 3)
    val ps = PivotSelection.pcaPivots(vs, 6)
    assert(ps.numPivots == 6)
  }

  test("k bounded by pool size") {
    val vs = pool(7, 4, 5)
    val ps = PivotSelection.pcaPivots(vs, 10)
    assert(ps.numPivots == 4)
  }

  test("sample keeps order-spread subset and caps size") {
    val vs = pool(8, 100, 4)
    val s = PivotSelection.sample(vs, 10)
    assert(s.length == 10)
    assert(PivotSelection.sample(vs, 200).length == 100)
  }

  /** The selection before the covariance was formed once: each
    * power-iteration step computes `Xᵀ(X v)` over the centred sample, and
    * the picks check a set.
    */
  private def implicitPcaPivots(vectors: IndexedSeq[Array[Double]], k: Int): Seq[Array[Double]] = {
    val dim = vectors.head.length
    val mu = VectorOps.mean(vectors)
    def proj(x: Array[Double], v: Array[Double]): Double = (0 until dim).map(i => (x(i) - mu(i)) * v(i)).sum
    val comps = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
    var rngState = 7L
    while (comps.length < math.min(k, dim)) {
      var v = VectorOps.normalize(Array.fill(dim) {
        rngState = repro.embed.HashingEmbedder.splitmix64(rngState)
        rngState.toDouble / Long.MaxValue
      })
      (1 to 20).foreach { _ =>
        val w = new Array[Double](dim)
        vectors.foreach { x =>
          val p = proj(x, v)
          (0 until dim).foreach(i => w(i) += p * (x(i) - mu(i)))
        }
        comps.foreach { u =>
          val d = VectorOps.dot(w, u)
          (0 until dim).foreach(i => w(i) -= d * u(i))
        }
        val n = VectorOps.norm(w)
        if (n > 1e-12) v = w.map(_ / n)
      }
      comps += v
    }
    val chosen = scala.collection.mutable.LinkedHashSet.empty[Int]
    comps.foreach { u =>
      val free = vectors.indices.filterNot(chosen.contains)
      if (free.nonEmpty) chosen += free.maxBy(i => math.abs(proj(vectors(i), u)))
    }
    while (chosen.size < k && chosen.size < vectors.length) {
      val free = vectors.indices.filterNot(chosen.contains)
      chosen += free.maxBy(i => chosen.iterator.map(j => VectorOps.euclidean(vectors(i), vectors(j))).min)
    }
    chosen.toSeq.map(vectors)
  }

  test("the covariance formed once picks the pivots of the implicit X^T(Xv) iteration") {
    for ((seed, n, dim, k) <- Seq((11L, 200, 8, 5), (12L, 300, 20, 16), (13L, 60, 5, 9), (14L, 12, 6, 16))) {
      val vs = pool(seed, n, dim)
      val got = PivotSelection.pcaPivots(vs, k).pivots.toSeq.map(_.toSeq)
      assert(got == implicitPcaPivots(vs, k).map(_.toSeq), s"seed=$seed n=$n dim=$dim k=$k")
    }
  }

  test("pcaPivots(s, 16) starts with pcaPivots(s, |P|), also beyond dim and with duplicate vectors") {
    val rng = new Random(15)
    val dupes = {
      val base = pool(16, 20, 6)
      IndexedSeq.fill(60)(base(rng.nextInt(base.length)).clone())
    }
    for (vs <- Seq(pool(17, 500, 10), pool(18, 100, 4), dupes, pool(19, 7, 3)); p <- 1 to 8) {
      val all = PivotSelection.pcaPivots(vs, 16).pivots.toSeq.map(_.toSeq)
      val grid = PivotSelection.pcaPivots(vs, p).pivots.toSeq.map(_.toSeq)
      assert(all.length == math.min(16, vs.length))
      assert(all.take(grid.length) == grid, s"|P|=$p n=${vs.length} dim=${vs.head.length}")
    }
  }

  test("empty pool rejected") {
    intercept[IllegalArgumentException] { PivotSelection.pcaPivots(IndexedSeq.empty, 2) }
  }
}
