package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.baselines.NaiveSearch
import repro.embed.VectorOps

/** End-to-end exactness of PEXESO (Algorithm 3): the joinable set must
  * equal the brute-force reference on randomized instances across every
  * parameter axis — this is the paper's central correctness claim ("our
  * search algorithm finds exact answers").
  */
class PexesoSpec extends AnyFunSuite {

  private def check(seed: Long, numPivots: Int, levels: Int,
                    tau: Double, tFrac: Double, mode: VerifyMode,
                    quickBrowsing: Boolean = true): Unit = {
    val (cols, query) = TestData.searchInstance(seed)
    val index = PexesoIndex.build(cols, numPivots, levels)
    val got = PexesoPropertySpec.search(index, query, tau, tFrac, mode, quickBrowsing)._1
    val want = NaiveSearch.search(cols, query, tau, tFrac).joinable
    assert(got == want,
      s"seed=$seed |P|=$numPivots m=$levels tau=$tau T=$tFrac mode=$mode qb=$quickBrowsing")
  }

  test("PEXESO equals brute force across random instances") {
    for (seed <- 1L to 10L)
      check(seed, numPivots = 3, levels = 3, tau = 0.4, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("PEXESO-H equals brute force across random instances") {
    for (seed <- 1L to 10L)
      check(seed, numPivots = 3, levels = 3, tau = 0.4, tFrac = 0.5, VerifyMode.PexesoH)
  }

  test("exactness across tau sweep") {
    for (tau <- Seq(0.05, 0.2, 0.4, 0.8, 1.2))
      check(seed = 11, numPivots = 3, levels = 3, tau = tau, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("exactness across T sweep") {
    for (t <- Seq(0.1, 0.2, 0.4, 0.6, 0.8, 1.0))
      check(seed = 12, numPivots = 3, levels = 3, tau = 0.4, tFrac = t, VerifyMode.Pexeso)
  }

  test("exactness across pivot counts") {
    for (p <- 1 to 5)
      check(seed = 13, numPivots = p, levels = 3, tau = 0.4, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("exactness across grid levels") {
    for (m <- 1 to 5)
      check(seed = 14, numPivots = 3, levels = m, tau = 0.4, tFrac = 0.5, VerifyMode.Pexeso)
  }

  test("exactness with quick browsing disabled") {
    for (seed <- 15L to 18L)
      check(seed, numPivots = 3, levels = 3, tau = 0.4, tFrac = 0.5,
        VerifyMode.Pexeso, quickBrowsing = false)
  }

  test("PEXESO computes fewer distances than brute force") {
    val (cols, query) = TestData.searchInstance(20, nCols = 20, colSize = 30)
    val index = PexesoIndex.build(cols, 3, 3)
    val r = index.search(query, 0.3, 0.5)
    val naive = NaiveSearch.search(cols, query, 0.3, 0.5, earlyTermination = false)
    assert(r.distanceComputations < naive.distanceComputations,
      s"pexeso=${r.distanceComputations} naive=${naive.distanceComputations}")
  }

  test("PEXESO computes fewer distances than PEXESO-H") {
    val (cols, query) = TestData.searchInstance(21, nCols = 20, colSize = 30)
    val index = PexesoIndex.build(cols, 3, 3)
    val a = index.search(query, 0.3, 0.5, VerifyMode.Pexeso)
    val b = index.search(query, 0.3, 0.5, VerifyMode.PexesoH)
    assert(a.distanceComputations <= b.distanceComputations)
  }

  test("empty result when tau is tiny and T is high") {
    val (cols, query) = TestData.searchInstance(22)
    val index = PexesoIndex.build(cols, 3, 3)
    assert(index.search(query, 1e-9, 1.0).joinable ==
      NaiveSearch.search(cols, query, 1e-9, 1.0).joinable)
  }

  test("everything joins when tau is the max distance and T small") {
    val (cols, query) = TestData.searchInstance(23)
    val index = PexesoIndex.build(cols, 3, 3)
    val got = index.search(query, 2.0, 0.1).joinable
    assert(got == cols.map(_.colId).toSet)
  }

  test("searchResult stats populated") {
    val (cols, query) = TestData.searchInstance(24)
    val index = PexesoIndex.build(cols, 3, 3)
    val r = index.search(query, 0.4, 0.5)
    assert(r.blockNanos > 0 && r.verifyNanos >= 0)
    assert(r.candidatePairs >= 0 && r.matchingPairs >= 0)
    assert(index.buildNanos > 0)
    assert(index.numColumns == cols.size)
  }

  test("a repository vector at exactly d = tau matches in both verify modes") {
    // 0.75 - 0.5 = 0.25 and 0.25² = 0.0625 are exact in binary: d = τ exactly
    val tau = 0.25
    val query = Array(Array(0.5, 0.5, 0.0))
    val cols = IndexedSeq(
      ColumnVectors(0, "tie", Array(Array(0.75, 0.5, 0.0), Array(0.0, 0.0, 0.9))),
      ColumnVectors(1, "far", Array(Array(0.0, 0.9, 0.0), Array(0.9, 0.0, 0.3))),
    )
    assert(VectorOps.euclidean(query(0), cols(0).vectors(0)) == tau)
    val want = NaiveSearch.search(cols, query, tau, 1.0).joinable
    assert(want == Set(0))
    for (p <- 1 to 3; m <- 1 to 4; mode <- Seq(VerifyMode.Pexeso, VerifyMode.PexesoH);
         qb <- Seq(true, false)) {
      val got = PexesoPropertySpec.search(PexesoIndex.build(cols, p, m), query, tau, 1.0, mode, qb)._1
      assert(got == want, s"|P|=$p m=$m mode=$mode qb=$qb")
    }
  }

  test("all lake and query vectors in one leaf cell") {
    // tight jitter around one center: every pivot distance is below 0.1,
    // inside the first of the eight leaf cells per pivot at m = 3
    val rng = new scala.util.Random(26)
    val center = TestData.unitVec(rng, 8)
    val cols = (0 until 8).map(c =>
      ColumnVectors(c, s"col$c", Array.fill(5)(TestData.near(rng, center, 0.005))))
    val query = Array.fill(6)(TestData.near(rng, center, 0.005))
    val index = PexesoIndex.build(cols, 3, 3)
    assert(index.inverted.numCells == 1)
    val answers = (5 to 20).map(_ * 0.001).map { tau =>
      val want = NaiveSearch.search(cols, query, tau, 0.5).joinable
      for (mode <- Seq(VerifyMode.Pexeso, VerifyMode.PexesoH); qb <- Seq(true, false))
        assert(PexesoPropertySpec.search(index, query, tau, 0.5, mode, qb)._1 == want, s"tau=$tau mode=$mode qb=$qb")
      want
    }
    // some threshold separates joinable from non-joinable columns
    assert(answers.exists(w => w.nonEmpty && w.size < cols.size), answers)
  }
}
