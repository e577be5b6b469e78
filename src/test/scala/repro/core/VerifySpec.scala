package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.baselines.NaiveSearch

class VerifySpec extends AnyFunSuite {

  /** A lake of one-dimensional values at |P| = 1, m = 4, each value its own
    * pivot image (the pivot is the origin, so Lemmas 1–5 are exact), with
    * Block's pairs for `query` and Verify's answer.
    */
  private def search(cols: IndexedSeq[ColumnVectors], query: Array[Array[Double]], tau: Double, tFrac: Double,
                     mode: VerifyMode, quickBrowsing: Boolean = true): (BlockResult, Set[Int], Verify.Stats) = {
    val lake = cols.flatMap(_.vectors).toArray
    val colOf = cols.indices.flatMap(c => Seq.fill(cols(c).vectors.length)(c)).toArray
    val index = InvertedIndex.build(new HierarchicalGrid(1, 4), cols.map(_.colId).toArray, colOf, lake, lake)
    val hgQ = new HierarchicalGrid(1, 4)
    query.indices.foreach(q => hgQ.insert(query(q), q))
    val block = Block.run(hgQ, index, query, tau, quickBrowsing)
    val (joinable, stats) = Verify.pexeso(block, index, query, query, tau, Verify.absThreshold(tFrac, query.length), mode)
    (block, joinable, stats)
  }

  test("absThreshold: smallest count whose fraction reaches T") {
    assert(Verify.absThreshold(0.5, 10) == 5)
    assert(Verify.absThreshold(0.51, 10) == 6)
    assert(Verify.absThreshold(0.2, 10) == 2)
    assert(Verify.absThreshold(0.6, 5) == 3)
  }

  test("absThreshold is at least 1") {
    assert(Verify.absThreshold(0.0, 10) == 1)
    assert(Verify.absThreshold(0.01, 5) == 1)
  }

  test("absThreshold handles exact boundaries without float drift") {
    // 0.6 * 5 = 3.0000000000000004 in IEEE — must still be 3
    assert(Verify.absThreshold(0.6, 5) == 3)
    assert(Verify.absThreshold(0.3, 10) == 3)
    assert(Verify.absThreshold(1.0, 7) == 7)
  }

  test("absThreshold: T=100% requires every query vector") {
    (1 to 20).foreach(n => assert(Verify.absThreshold(1.0, n) == n))
  }

  test("sqThreshold: s <= t exactly when sqrt(s) <= tau, around t") {
    // 0.12 and 0.06·2 are not representable in binary; the random sweep
    // covers the rest of [0, 2.5]
    val rng = new Random(5)
    val taus = Seq(0.0, Double.MinPositiveValue, 1e-300, 1e-9, 0.06 * 2, 0.12, 0.1, 0.25,
      1.0 / 3, 0.5, 1.0, math.sqrt(2), 2.0, 2.0 + 1e-6, 1e10, 1e200) ++
      Seq.fill(2000)(rng.nextDouble() * 2.5)
    taus.foreach { tau =>
      val t = Verify.sqThreshold(tau)
      Seq(t, math.nextUp(t), math.nextDown(t)).filter(_ >= 0).foreach { s =>
        assert((s <= t) == (math.sqrt(s) <= tau), s"tau=$tau t=$t s=$s")
      }
    }
  }

  test("Lemma 7 drops a column that only the last query vectors can reach") {
    // q0..q4 are far from the column and q5..q9 each 0.01 from one of its
    // values: at q5 the column has no match and 5 query vectors left, fewer
    // than the 6 that T = 60% of 10 asks for
    val col = ColumnVectors(0, "late", Array(0.5, 0.52, 0.54, 0.56, 0.58).map(Array(_)))
    val query = (Array.fill(5)(1.5) ++ Array(0.51, 0.53, 0.55, 0.57, 0.59)).map(Array(_))
    val (tau, tFrac) = (0.02, 0.6)
    val (block, joinable, stats) = search(IndexedSeq(col), query, tau, tFrac, VerifyMode.Pexeso)
    assert((0 until block.candidatePairs.size).map(block.candidatePairs.q).toSet == (5 to 9).toSet)
    assert(joinable == NaiveSearch.search(IndexedSeq(col), query, tau, tFrac).joinable)
    assert(stats.distanceComputations == 0)
    // PEXESO-H has no Lemma 7 and verifies what the walk reaches
    assert(search(IndexedSeq(col), query, tau, tFrac, VerifyMode.PexesoH)._3.distanceComputations > 0)
    // at T = 50% the column is reachable, and joinable
    val (_, atHalf, _) = search(IndexedSeq(col), query, tau, 0.5, VerifyMode.Pexeso)
    assert(atHalf == Set(0) && atHalf == NaiveSearch.search(IndexedSeq(col), query, tau, 0.5).joinable)
  }

  test("a query vector matched by Lemma 5 in two cells and by a candidate counts once") {
    // q0 = 0.3 at τ = 0.6: the leaves [0, 0.125] and [0.125, 0.25] lie in
    // [0, τ − q0'], so Lemma 5 matches both; 0.8, in the leaf [0.75, 0.875],
    // is a candidate within τ. At |Q| = 2 and T = 1 the column joins only
    // if q1 matches it too.
    val col = ColumnVectors(0, "c", Array(0.05, 0.2, 0.8).map(Array(_)))
    for ((q1, joins) <- Seq(1.95 -> false, 0.85 -> true); mode <- Seq(VerifyMode.Pexeso, VerifyMode.PexesoH)) {
      val query = Array(Array(0.3), Array(q1))
      val (block, joinable, stats) = search(IndexedSeq(col), query, 0.6, 1.0, mode, quickBrowsing = false)
      val mp = block.matchingPairs
      val cp = block.candidatePairs
      assert((mp.runStart(0) until mp.runEnd(0)).map(mp.cell) == Seq(0, 1), s"q1=$q1 $mode")
      assert((cp.runStart(0) until cp.runEnd(0)).map(cp.cell) == Seq(2), s"q1=$q1 $mode")
      assert(joinable == (if (joins) Set(0) else Set.empty[Int]), s"q1=$q1 $mode")
      assert(joinable == NaiveSearch.search(IndexedSeq(col), query, 0.6, 1.0).joinable, s"q1=$q1 $mode")
      // q0's candidate is not tested, since q0 already matches the column;
      // q1 = 0.85 takes one distance, to 0.8
      assert(stats.distanceComputations == (if (joins) 1 else 0), s"q1=$q1 $mode")
    }
  }
}
