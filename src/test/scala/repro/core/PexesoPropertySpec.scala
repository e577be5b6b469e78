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
  * verify modes, quick browsing on and off.
  */
class PexesoPropertySpec extends AnyFunSuite {
  import PexesoPropertySpec.genCase

  test("PEXESO search equals NaiveSearch on random unit-vector lakes") {
    val prop = Prop.forAllNoShrink(genCase) { c =>
      val (cols, query) = c.instance
      val got = PexesoIndex.build(cols, c.numPivots, c.levels)
        .search(query, c.tau, c.tFrac, c.mode, c.quickBrowsing).joinable
      val want = NaiveSearch.search(cols, query, c.tau, c.tFrac).joinable
      Prop(got == want) :| s"$c: got $got, want $want"
    }
    val params = Test.Parameters.default
      .withMinSuccessfulTests(400)
      .withInitialSeed(Seed(20210419L))
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
