package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ArraySeq
import scala.util.Random
import repro.TestData
import repro.embed.VectorOps

/** Randomized soundness checks for Lemmas 3 and 5: whenever a lemma claims
  * "filtered", no contained vector may match; whenever it claims
  * "matched", every contained vector must match — verified against exact
  * distances in the original space. Also: the Lemma 3 code ranges, shifted
  * to a level, decide exactly what the box test on that level's leaves
  * decides.
  */
class GridGeometrySpec extends AnyFunSuite {

  private val dim = 5

  /** Build a tiny world: pivots, target vectors in a grid, query vectors
    * in a grid; return everything needed to cross-check lemma claims.
    */
  private def world(seed: Long, levels: Int = 3) = {
    val rng = new Random(seed)
    val pivots = PivotSet(Array.fill(2)(TestData.unitVec(rng, dim)))
    val targets = Array.fill(60)(TestData.unitVec(rng, dim))
    val queries = Array.fill(20)(TestData.unitVec(rng, dim))
    val hgS = new HierarchicalGrid(2, levels)
    val hgQ = new HierarchicalGrid(2, levels)
    def leaf(g: HierarchicalGrid, v: Array[Double], i: Int) = {
      g.insert(pivots.map(v), i)
      (v, ArraySeq.unsafeWrapArray(g.coordsAt(pivots.map(v), levels)))
    }
    val tLeaves = targets.zipWithIndex.map { case (t, i) => leaf(hgS, t, i) }
    val qLeaves = queries.zipWithIndex.map { case (q, i) => leaf(hgQ, q, i) }
    (rng, pivots, tLeaves, qLeaves, hgS, hgQ)
  }

  private val wv = GridGeometry.codeWidth(HierarchicalGrid.DefaultExtent)
  private def shift(g: HierarchicalGrid) = GridGeometry.CodeBits - g.levels

  /** q's code bounds on `n` pivots: Lemma 3's `lo` and `hi`, Lemma 5's `lim`. */
  private def bounds(qm: Array[Double], n: Int, tau: Double, w: Double = wv): (Array[Int], Array[Int], Array[Int]) = {
    val (lo, hi, lim) = (new Array[Int](n), new Array[Int](n), new Array[Int](n))
    GridGeometry.bounds(qm, n, tau, w, lo, hi, lim)
    (lo, hi, lim)
  }

  /** Lemma 3 as `bounds` gives it, shifted to `g`'s leaves: whether the
    * leaf `key` is outside q's range on some pivot.
    */
  private def filtered(g: HierarchicalGrid, key: Seq[Int], qm: Array[Double], tau: Double): Boolean = {
    val (lo, hi, _) = bounds(qm, g.numDims, tau)
    key.indices.exists(i => key(i) < (lo(i) >> shift(g)) || key(i) > (hi(i) >> shift(g)))
  }

  /** Lemma 5 as `bounds` gives it, shifted to `g`'s leaves: whether the
    * leaf `key` is below q's limit on some pivot.
    */
  private def matched(g: HierarchicalGrid, key: Seq[Int], qm: Array[Double], tau: Double): Boolean = {
    val (_, _, lim) = bounds(qm, g.numDims, tau)
    key.indices.exists(i => key(i) < (lim(i) >> shift(g)))
  }

  test("Lemma 3 soundness: vector-cell filtered => no vector in the cell matches") {
    val (rng, pivots, tLeaves, _, hgS, _) = world(1)
    (1 to 100).foreach { _ =>
      val q = TestData.unitVec(rng, dim)
      val qm = pivots.map(q)
      val tau = rng.nextDouble() * 0.8
      tLeaves.foreach { case (t, leaf) =>
        if (filtered(hgS, leaf, qm, tau))
          assert(VectorOps.euclidean(q, t) > tau, "Lemma 3 filtered a match")
      }
    }
  }

  test("Lemma 5 soundness: vector-cell matched => every vector in the cell matches") {
    val (rng, pivots, tLeaves, _, hgS, _) = world(2)
    (1 to 200).foreach { _ =>
      // query near a target so matching regions actually occur
      val t0 = tLeaves(rng.nextInt(tLeaves.length))._1
      val q = TestData.near(rng, t0, 0.05)
      val qm = pivots.map(q)
      val tau = 0.3 + rng.nextDouble() * 0.8
      hgS.leafCells.foreach { leaf =>
        if (matched(hgS, leaf.key, qm, tau)) {
          tLeaves.filter(_._2 == leaf.key).foreach { case (t, _) =>
            assert(VectorOps.euclidean(q, t) <= tau + 1e-9, "Lemma 5 matched a non-match")
          }
        }
      }
    }
  }

  test("Lemma 4 is implied by Lemma 3 for degenerate query cells") {
    // Lemma 4 on the level-l boxes, the query cell's box inflated by τ,
    // filters only leaves that Lemma 3 filters for a query vector inside
    // the query cell: the reason the probe needs no inner level
    val (rng, pivots, _, _, hgS, _) = world(5, levels = 5)
    (1 to 50).foreach { _ =>
      val qm = pivots.map(TestData.unitVec(rng, dim))
      val qLeaf = hgS.coordsAt(qm, hgS.levels)
      val tau = rng.nextDouble() * 0.5
      (1 to hgS.levels).foreach { l =>
        val k = hgS.levels - l
        val wl = hgS.extent / (1 << l)
        val inBox = qm.indices.forall(i => (qLeaf(i) >> k) * wl <= qm(i) && qm(i) <= ((qLeaf(i) >> k) + 1) * wl)
        hgS.leafCells.foreach { tLeaf =>
          val lemma4 = qm.indices.exists { i =>
            val (c, cq) = (tLeaf.key(i) >> k, qLeaf(i) >> k)
            c * wl > (cq + 1) * wl + tau || (c + 1) * wl < cq * wl - tau
          }
          if (inBox && lemma4)
            assert(filtered(hgS, tLeaf.key, qm, tau),
              s"level $l filtered by Lemma 4 but leaf ${tLeaf.key} not by Lemma 3")
        }
      }
    }
  }

  test("match and filter never fire together on the same pair") {
    val (rng, pivots, tLeaves, _, hgS, _) = world(6)
    (1 to 5).foreach { k =>
      val tau = 0.2 * k
      (1 to 20).foreach { _ =>
        val qm = pivots.map(TestData.near(rng, tLeaves(rng.nextInt(tLeaves.length))._1, 0.1))
        hgS.leafCells.foreach { leaf =>
          assert(!(matched(hgS, leaf.key, qm, tau) && filtered(hgS, leaf.key, qm, tau)))
        }
      }
    }
  }

  test("the Lemma 3 ranges decide exactly what the box test decides") {
    // the box of leaf c at level m is [c·W, (c+1)·W] with W = extent / 2^m,
    // tested with Lemma 1's |q' − x'| > τ on its nearest edge
    val rng = new Random(7)
    for (levels <- Seq(1, 2, 3, 5, 8); extent <- Seq(2.0 + 1e-6, 1.0, 0.3)) {
      val (side, width) = (1 << levels, extent / (1 << levels))
      val s = GridGeometry.CodeBits - levels
      (1 to 300).foreach { t =>
        // values and τ on grid lines, just off them, and anywhere
        val onLine = rng.nextInt(side + 1) * width
        val qm = Array(rng.nextInt(4) match {
          case 0 => onLine
          case 1 => math.nextUp(onLine)
          case 2 => math.nextDown(onLine)
          case _ => rng.nextDouble() * extent
        })
        val tau = t % 5 match {
          case 0 => 0.0
          case 1 => rng.nextInt(4) * width
          case 2 => extent * (1 + rng.nextDouble())
          case _ => rng.nextDouble() * extent / 2
        }
        val (lo, hi, lim) = (new Array[Int](1), new Array[Int](1), new Array[Int](1))
        val nonEmpty = GridGeometry.bounds(qm, 1, tau, GridGeometry.codeWidth(extent), lo, hi, lim)
        assert(nonEmpty == (lo(0) <= hi(0)))
        (0 until side).foreach { c =>
          val boxFiltered = c * width - qm(0) > tau || qm(0) - (c + 1) * width > tau
          assert(((lo(0) >> s) <= c && c <= (hi(0) >> s)) == !boxFiltered,
            s"Lemma 3 range [${lo(0)}, ${hi(0)}] at c=$c q=${qm(0)} tau=$tau m=$levels")
        }
      }
    }
  }

  test("the Lemma 3 code ranges are exact at their edges") {
    val rng = new Random(8)
    for (extent <- Seq(2.0 + 1e-6, 1.0 / 3, 7.3)) {
      val w = GridGeometry.codeWidth(extent)
      val side = GridGeometry.Codes
      val (lo, hi, lim) = (new Array[Int](2), new Array[Int](2), new Array[Int](2))
      (1 to 2000).foreach { t =>
        val onLine = rng.nextInt(side) * w
        val qm = Array(math.min(extent, t % 3 match {
          case 0 => onLine
          case 1 => math.nextUp(onLine)
          case _ => rng.nextDouble() * extent
        }), extent)
        val tau = t % 4 match {
          case 0 => 0.0
          case 1 => rng.nextInt(4) * w
          case 2 => extent * (1 + rng.nextDouble())
          case _ => rng.nextDouble() * extent / 8
        }
        assert(GridGeometry.bounds(qm, 2, tau, w, lo, hi, lim))
        for (i <- 0 until 2) {
          def passes(c: Int) = !(c * w - qm(i) > tau) && !(qm(i) - (c + 1) * w > tau)
          val what = s"pivot $i range [${lo(i)}, ${hi(i)}] q=${qm(i)} tau=$tau"
          assert(0 <= lo(i) && lo(i) <= hi(i) && hi(i) < side, what)
          assert(passes(lo(i)) && passes(hi(i)), what)
          assert((lo(i) == 0 || !passes(lo(i) - 1)) && (hi(i) == side - 1 || !passes(hi(i) + 1)), what)
        }
      }
    }
  }

  test("Lemma 5's limit is the greatest code k with k·w <= τ − q', and c < lim >> s is the leaf box test") {
    // q' and τ − q' at, just above and one ulp below the grid lines of
    // levels 1 to 4, where a leaf box edge ((c+1) << s)·w can equal τ − q'
    for (extent <- Seq(HierarchicalGrid.DefaultExtent, 1.0, 0.3); levels <- 1 to 4) {
      val (side, w) = (1 << levels, GridGeometry.codeWidth(extent))
      val s = GridGeometry.CodeBits - levels
      val lines = (0 to side).map(_ * (extent / side))
      def near(v: Double): Seq[Double] = Seq(v, math.nextUp(v), math.nextDown(v)).filter(_ >= 0)
      for (q <- lines.flatMap(near).filter(_ <= extent); tau <- lines.flatMap(l => near(q + l) ++ near(l))) {
        val lim = bounds(Array(q), 1, tau, w)._3(0)
        val edge = tau - q
        val what = s"lim $lim at q=$q tau=$tau m=$levels extent=$extent"
        assert((lim == -1) == (tau < q), what)
        assert(lim == -1 || lim * w <= edge && (lim == GridGeometry.Codes || (lim + 1) * w > edge), what)
        (0 until side).foreach(c => assert((c < (lim >> s)) == (((c + 1) << s) * w <= edge), s"$what c=$c"))
      }
    }
  }
}
