package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.baselines.NaiveSearch

/** Property: `PexesoIndex.search` equals `NaiveSearch` on random lakes of
  * unit vectors, across the parameter space and its edges — duplicate
  * vectors (in the lake and between lake and query), a single-column lake,
  * |Q| = 1, τ ∈ {0, small, 2}, T ∈ {1/|Q|, 1}, |P| ∈ 1..5, m ∈ 1..6, both
  * verify modes, quick browsing on and off. Lakes of fewer vectors than
  * the 16 pivots an index takes in all get fewer filter pivots.
  */
class PexesoPropertySpec extends AnyFunSuite {
  import PexesoPropertySpec.genCase

  test("PEXESO search equals NaiveSearch on random unit-vector lakes") {
    // cases where Block emits matching pairs (τ = 2 gives them), so that
    // Verify's Lemma 5 credits are checked too
    var withMatching = 0
    val prop = Prop.forAllNoShrink(genCase) { c =>
      val (cols, query) = c.instance
      val res = PexesoIndex.build(cols, c.numPivots, c.levels)
        .search(query, c.tau, c.tFrac, c.mode, c.quickBrowsing)
      if (res.matchingPairs > 0) withMatching += 1
      val want = NaiveSearch.search(cols, query, c.tau, c.tFrac).joinable
      Prop(res.joinable == want) :| s"$c: got ${res.joinable}, want $want"
    }
    val params = Test.Parameters.default
      .withMinSuccessfulTests(400)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
    assert(withMatching >= 20, s"only $withMatching cases have matching pairs")
  }

  test("filter pivots: the grid's pivots first, max(|P|, 16) in all up to the lake size, exact in every mode") {
    // two in three lakes hold fewer vectors than 16, many of them repeated
    val genSmall = Gen.frequency(
      1 -> genCase,
      2 -> genCase.map(c => c.copy(numCols = 1 + c.numCols % 3, colSize = 1 + c.colSize % 5)))
    val prop = Prop.forAllNoShrink(genSmall) { c =>
      val (cols, query) = c.instance
      val index = PexesoIndex.build(cols, c.numPivots, c.levels)
      val lake = cols.flatMap(_.vectors)
      val all = math.min(math.max(c.numPivots, 16), lake.length)
      val grid = PivotSelection.pcaPivots(lake, c.numPivots).pivots
      val want = NaiveSearch.search(cols, query, c.tau, c.tFrac).joinable
      val wrong = for {
        mode <- Seq(VerifyMode.Pexeso, VerifyMode.PexesoH)
        qb <- Seq(true, false)
        got = index.search(query, c.tau, c.tFrac, mode, qb).joinable
        if got != want
      } yield s"$mode qb=$qb: got $got"
      Prop(index.pivots.numPivots == all && index.numPivots == grid.length &&
           index.grid.numFilters == all - grid.length) :|
        s"$c: ${index.pivots.numPivots} pivots, |P| = ${index.numPivots}, ${index.grid.numFilters} filter pivots" &&
      Prop(grid.indices.forall(i => index.pivots.pivots(i).sameElements(grid(i)))) :|
        s"$c: the grid's pivots are not the first" &&
      Prop(wrong.isEmpty) :| s"$c: want $want, ${wrong.mkString("; ")}"
    }
    val params = Test.Parameters.default
      .withMinSuccessfulTests(300)
      .withInitialSeed(Seed(20210422L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }
}

object PexesoPropertySpec {

  val genCase: Gen[Case] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    dim <- Gen.choose(2, 8)
    numCols <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.choose(2, 8))
    colSize <- Gen.choose(1, 12)
    qSize <- Gen.frequency(1 -> Gen.const(1), 4 -> Gen.choose(2, 10))
    numPivots <- Gen.choose(1, 5)
    levels <- Gen.choose(1, 6)
    tau <- Gen.oneOf(Gen.const(0.0), Gen.choose(0.01, 0.3), Gen.const(2.0))
    tOne <- Gen.oneOf(true, false)
    mode <- Gen.oneOf(VerifyMode.Pexeso, VerifyMode.PexesoH)
    quickBrowsing <- Gen.oneOf(true, false)
  } yield Case(seed, dim, numCols, colSize, qSize, numPivots, levels, tau, tOne, mode, quickBrowsing)

  final case class Case(
      seed: Long,
      dim: Int,
      numCols: Int,
      colSize: Int,
      qSize: Int,
      numPivots: Int,
      levels: Int,
      tau: Double,
      tOne: Boolean,
      mode: VerifyMode,
      quickBrowsing: Boolean,
  ) {
    def tFrac: Double = if (tOne) 1.0 else 1.0 / qSize

    /** Columns drawn around a few centres; a third of the vectors repeat
      * an earlier one exactly, and half the query vectors copy a lake vector.
      */
    def instance: (IndexedSeq[ColumnVectors], Array[Array[Double]]) = {
      val rng = new Random(seed)
      val centers = IndexedSeq.fill(3)(TestData.unitVec(rng, dim))
      val drawn = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
      def next(): Array[Double] = {
        val v =
          if (drawn.nonEmpty && rng.nextInt(3) == 0) drawn(rng.nextInt(drawn.length)).clone()
          else TestData.near(rng, centers(rng.nextInt(centers.length)), 0.1)
        drawn += v
        v
      }
      val cols = (0 until numCols).map(c => ColumnVectors(c, s"col$c", Array.fill(colSize)(next())))
      val query = Array.fill(qSize)(
        if (rng.nextBoolean()) drawn(rng.nextInt(drawn.length)).clone()
        else TestData.near(rng, centers(rng.nextInt(centers.length)), 0.1))
      (cols, query)
    }
  }
}
