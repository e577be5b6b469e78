package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.util.Random
import repro.TestData
import repro.embed.VectorOps

/** Blocking exactness: the set of (query vector, target leaf cell) pairs
  * produced by Algorithm 1 (+ quick browsing) must cover every true match
  * — a match lost at blocking can never be recovered at verification.
  */
class BlockSpec extends AnyFunSuite {

  private def instance(seed: Long, levels: Int, numPivots: Int) = {
    val rng = new Random(seed)
    val dim = 6
    val targets = Array.fill(80)(TestData.unitVec(rng, dim))
    val queries = Array.fill(15)(
      if (rng.nextBoolean()) TestData.near(rng, targets(rng.nextInt(targets.length)), 0.1)
      else TestData.unitVec(rng, dim))
    val pivots = PivotSelection.pcaPivots(targets.toIndexedSeq, numPivots)
    val targetsMapped = pivots.mapAll(targets)
    val hgS = BlockPropertySpec.hgSV(numPivots, levels, HierarchicalGrid.DefaultExtent, targetsMapped)
    val targetLeaf = targetsMapped.map(m => ArraySeq.unsafeWrapArray(new HierarchicalGrid(numPivots, levels).coordsAt(m, levels)))
    val hgQ = new HierarchicalGrid(numPivots, levels)
    val queryMapped = pivots.mapAll(queries)
    queries.indices.foreach(i => hgQ.insert(queryMapped(i), i))
    (targets, queries, pivots, hgS, hgQ, targetLeaf, queryMapped)
  }

  private def checkCompleteness(seed: Long, levels: Int, numPivots: Int, tau: Double,
                                quickBrowsing: Boolean): Unit = {
    val (targets, queries, _, hgS, hgQ, targetLeaf, queryMapped) =
      instance(seed, levels, numPivots)
    val res = Block.run(hgQ, hgS, queryMapped, tau, quickBrowsing)
    val pairs = mutable.HashSet.empty[(Int, Seq[Int])]
    (res.matching ++ res.candidates).foreach { case (q, cell) => pairs += ((q, cell.toSeq)) }
    // every true match must be covered by a pair for its leaf cell
    queries.indices.foreach { q =>
      targets.indices.foreach { t =>
        if (VectorOps.euclidean(queries(q), targets(t)) <= tau) {
          assert(pairs.contains((q, targetLeaf(t).toSeq)),
            s"true match (q=$q, t=$t) lost at blocking (levels=$levels |P|=$numPivots tau=$tau)")
        }
      }
    }
  }

  test("blocking covers all true matches (quick browsing on)") {
    for (seed <- 1L to 3L; tau <- Seq(0.1, 0.3, 0.6))
      checkCompleteness(seed, levels = 3, numPivots = 2, tau = tau, quickBrowsing = true)
  }

  test("blocking covers all true matches (quick browsing off)") {
    for (seed <- 4L to 6L; tau <- Seq(0.1, 0.3, 0.6))
      checkCompleteness(seed, levels = 3, numPivots = 2, tau = tau, quickBrowsing = false)
  }

  test("blocking covers all true matches across grid shapes") {
    for (levels <- 1 to 4; numPivots <- Seq(1, 3))
      checkCompleteness(seed = 7, levels = levels, numPivots = numPivots,
        tau = 0.4, quickBrowsing = true)
  }

  test("matching pairs are always true matches") {
    val tau = 0.5
    val (targets, queries, _, hgS, hgQ, targetLeaf, queryMapped) = instance(8, 3, 2)
    val res = Block.run(hgQ, hgS, queryMapped, tau)
    res.matching.foreach { case (q, cell) =>
      targets.indices.filter(t => targetLeaf(t) == cell).foreach { t =>
        assert(VectorOps.euclidean(queries(q), targets(t)) <= tau + 1e-9,
          "matching pair contains a non-match")
      }
    }
  }

  test("no duplicate (q, cell) pairs are produced") {
    val (_, _, _, hgS, hgQ, _, queryMapped) = instance(9, 3, 2)
    val res = Block.run(hgQ, hgS, queryMapped, 0.4)
    val all = (res.matching ++ res.candidates).map { case (q, c) => (q, c.toSeq) }
    assert(all.size == all.toSet.size, "duplicate pairs")
  }

  test("larger tau never produces fewer covered pairs") {
    val (_, _, _, hgS, hgQ, _, queryMapped) = instance(10, 3, 2)
    val small = Block.run(hgQ, hgS, queryMapped, 0.2)
    val large = Block.run(hgQ, hgS, queryMapped, 0.6)
    val sSmall = (small.matching ++ small.candidates).size
    val sLarge = (large.matching ++ large.candidates).size
    assert(sLarge >= sSmall)
  }

  test("mismatched level counts are rejected") {
    val hgQ = new HierarchicalGrid(2, 2)
    val hgS = BlockPropertySpec.hgSV(2, 3, HierarchicalGrid.DefaultExtent, Array(Array(0.5, 0.5)))
    intercept[IllegalArgumentException] {
      Block.run(hgQ, hgS, Array(Array(0.5, 0.5)), 0.1)
    }
  }

  test("mismatched pivot counts or extents are rejected") {
    // another |P| would index past the query's pivot images; another
    // extent would let quick browsing pair equal keys of different regions
    for (hgS <- Seq(BlockPropertySpec.hgSV(3, 2, HierarchicalGrid.DefaultExtent, Array(Array(0.5, 0.5, 0.5))),
                    BlockPropertySpec.hgSV(2, 2, 4.0, Array(Array(0.5, 0.5))))) {
      val hgQ = new HierarchicalGrid(2, 2)
      hgQ.insert(Array(0.5, 0.5), 0)
      val e = intercept[IllegalArgumentException] {
        Block.run(hgQ, hgS, Array(Array(0.5, 0.5)), 0.1)
      }
      assert(e.getMessage.contains("same shape"), e.getMessage)
    }
  }
}
