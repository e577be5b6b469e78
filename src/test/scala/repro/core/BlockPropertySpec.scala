package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Property: `Block.run` emits exactly the pairs that Lemmas 3 and 5,
  * tested on every (query vector, leaf) pair one by one, give, and each
  * query vector's own leaf first.
  *
  * The oracle: with quick browsing, q's own leaf (the leaf of `HG_SV` with
  * q's leaf key) is a candidate; every other leaf is dropped if Lemma 3
  * filters it, else matching if Lemma 5 matches it, else a candidate.
  * Mapped values are drawn in pivot space directly, over |P| 1..6 and m
  * 1..8 and 30, with values on grid lines, clustered lakes, one-leaf lakes,
  * and τ of 0, a multiple of the cell width, at least the extent, and
  * large enough that Lemma 5 fires.
  */
class BlockPropertySpec extends AnyFunSuite {
  import BlockPropertySpec._

  test("Block emits the pairs of a brute-force Lemma 3/5 oracle, own leaf first") {
    val prop = Prop.forAllNoShrink(genCase) { c =>
      val (lake, query) = c.instance
      val hgS = new HierarchicalGrid(c.numPivots, c.levels, c.extent)
      lake.foreach(hgS.insert(_, -1))
      val hgQ = new HierarchicalGrid(c.numPivots, c.levels, c.extent)
      query.indices.foreach(q => hgQ.insert(query(q), q))
      val res = Block.run(hgQ, hgS, query, c.tau, c.quickBrowsing)

      val want = oracle(hgS, query, c.tau, c.quickBrowsing)
      val gotMatching = pairs(res.matchingPairs)
      val gotCandidates = pairs(res.candidatePairs)
      val ownFirst = query.indices.forall { q =>
        val own = hgS.find(hgS.coordsAt(query(q), c.levels), 0)
        Seq(gotMatching, gotCandidates).forall { ps =>
          val mine = ps.filter(_._1 == q)
          !mine.exists(_._2 == own) || mine.head._2 == own
        }
      }
      Prop(gotMatching.toSet == want.matching) :| s"$c: matching differs" &&
      Prop(gotCandidates.toSet == want.candidates) :| s"$c: candidates differ" &&
      Prop(gotMatching.distinct.length == gotMatching.length &&
           gotCandidates.distinct.length == gotCandidates.length) :| s"$c: duplicate pairs" &&
      Prop(ownFirst) :| s"$c: a query vector's own leaf is not its first pair"
    }
    val params = Test.Parameters.default
      .withMinSuccessfulTests(1000)
      .withInitialSeed(Seed(20210421L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }
}

object BlockPropertySpec {

  final case class Expected(matching: Set[(Int, Int)], candidates: Set[(Int, Int)])

  def pairs(p: CellPairs): IndexedSeq[(Int, Int)] = (0 until p.size).map(i => (p.q(i), p.cell(i)))

  /** Every (q, leaf) pair classified on its own, by the lemmas written
    * out here on the leaf box `[lo, hi]` rather than taken from
    * [[GridGeometry]].
    */
  def oracle(hgS: HierarchicalGrid, query: Array[Array[Double]], tau: Double,
             quickBrowsing: Boolean): Expected = {
    val matching = Set.newBuilder[(Int, Int)]
    val candidates = Set.newBuilder[(Int, Int)]
    for (q <- query.indices; leaf <- hgS.leafCells) {
      val qm = query(q)
      def lo(i: Int) = leaf.key(i) * hgS.width
      def hi(i: Int) = (leaf.key(i) + 1) * hgS.width
      val lemma3 = qm.indices.exists(i => lo(i) > qm(i) + tau || hi(i) < qm(i) - tau)
      val lemma5 = qm.indices.exists(i => tau - qm(i) >= 0 && hi(i) <= tau - qm(i))
      if (quickBrowsing && leaf.key == hgS.coordsAt(qm, hgS.levels).toSeq) candidates += ((q, leaf.id))
      else if (!lemma3) (if (lemma5) matching else candidates) += ((q, leaf.id))
    }
    Expected(matching.result(), candidates.result())
  }

  sealed trait Lake
  case object Uniform extends Lake
  case object Clustered extends Lake
  case object OneLeaf extends Lake

  sealed trait Tau
  case object Zero extends Tau
  case object CellMultiple extends Tau
  case object AtLeastExtent extends Tau
  case object Small extends Tau
  case object Matching extends Tau

  val genCase: Gen[Case] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    numPivots <- Gen.choose(1, 6)
    levels <- Gen.frequency(8 -> Gen.choose(1, 8), 1 -> Gen.const(30))
    extent <- Gen.oneOf(HierarchicalGrid.DefaultExtent, 1.0, 3.7)
    lakeSize <- Gen.choose(1, 80)
    qSize <- Gen.choose(1, 10)
    lake <- Gen.frequency(2 -> Gen.const(Uniform), 4 -> Gen.const(Clustered), 1 -> Gen.const(OneLeaf))
    tau <- Gen.oneOf(Zero, CellMultiple, AtLeastExtent, Small, Matching)
    onLines <- Gen.oneOf(true, false)
    quickBrowsing <- Gen.oneOf(true, false)
  } yield Case(seed, numPivots, levels, extent, lakeSize, qSize, lake, tau, onLines, quickBrowsing)

  final case class Case(
      seed: Long,
      numPivots: Int,
      levels: Int,
      extent: Double,
      lakeSize: Int,
      qSize: Int,
      lake: Lake,
      tauKind: Tau,
      onLines: Boolean,
      quickBrowsing: Boolean,
  ) {
    private def side = 1 << levels
    private def width = extent / side

    /** τ for this case, drawn from the seed. */
    def tau: Double = {
      val rng = new Random(seed ^ 0x5eed)
      tauKind match {
        case Zero          => 0.0
        case CellMultiple  => (1 + rng.nextInt(3)) * width
        case AtLeastExtent => extent * (1 + rng.nextDouble())
        case Small         => rng.nextDouble() * 4 * width
        case Matching      => extent * (0.5 + rng.nextDouble() / 2)
      }
    }

    /** Mapped lake and query vectors. Half the query vectors sit near a
      * lake vector; with `onLines`, half of all values lie on grid lines.
      */
    def instance: (Array[Array[Double]], Array[Array[Double]]) = {
      val rng = new Random(seed)
      def value(near: Double, spread: Double): Double = {
        val v =
          if (onLines && rng.nextBoolean()) math.round(near / width + rng.nextInt(5) - 2) * width
          else near + (rng.nextDouble() - 0.5) * spread
        math.min(extent, math.max(0.0, v))
      }
      val center = Array.fill(numPivots)(rng.nextDouble() * extent)
      val lakeVecs = lake match {
        case Uniform   => Array.fill(lakeSize)(Array.fill(numPivots)(value(rng.nextDouble() * extent, 0)))
        case Clustered => Array.fill(lakeSize)(center.map(value(_, 8 * width)))
        case OneLeaf   =>
          // all inside the cell of the centre, away from its edges
          val cell = center.map(x => math.min(side - 1, (x / width).toInt))
          Array.fill(lakeSize)(cell.map(c => (c + 0.25 + rng.nextDouble() / 2) * width))
      }
      val query = Array.fill(qSize) {
        if (rng.nextBoolean()) lakeVecs(rng.nextInt(lakeVecs.length)).map(value(_, 2 * width))
        else Array.fill(numPivots)(value(rng.nextDouble() * extent, 0))
      }
      (lakeVecs, query)
    }
  }
}
