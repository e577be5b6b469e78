package repro.core

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Property: `Block.run` emits exactly the pairs that Lemmas 3 and 5 and
  * the filter-pivot boxes, tested on every (query vector, leaf) pair one by
  * one, give, and each query vector's own leaf first, in one run per
  * query vector.
  *
  * The oracle: a leaf is dropped if, on some filter pivot, the box of its
  * vectors' codes lies wholly more than τ above or below q', by Lemma 1's
  * own expressions (`lo − q' > τ`, `q' − hi > τ`); otherwise,
  * with quick browsing, q's own leaf (the leaf of `HG_SV` with q's leaf
  * key) is a candidate; every other leaf is dropped if Lemma 3 filters it,
  * else matching if Lemma 5 matches it, else a candidate. The oracle finds
  * leaves and codes with a binary search of its own. Mapped values are
  * drawn in pivot space directly, over |P| 1..6, 0..5 filter pivots and m
  * 1..8 and 16, with values on grid lines, one ulp below them, on code
  * lines and at the extent (the last code), clustered lakes, one-leaf
  * lakes, and τ of 0, a multiple of the cell width, at least the extent,
  * and large enough that Lemma 5 fires.
  *
  * A second property checks Block against Lemma 1 itself: a lake vector
  * with `|q' − x'| <= τ` on every pivot lies in a leaf that Block emits
  * for q.
  */
class BlockPropertySpec extends AnyFunSuite {
  import BlockPropertySpec._

  private def check(prop: Prop): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(1000)
      .withInitialSeed(Seed(20210421L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result, Pretty.Params(2)))
  }

  test("Block emits the pairs of a brute-force Lemma 3/5 oracle, own leaf first") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val (lake, query) = c.instance
      val (hgS, res) = block(c.numPivots, c.levels, c.extent, lake, query, c.tau, c.quickBrowsing)
      val want = oracle(hgS, lake, query, c.tau, c.quickBrowsing)
      val gotMatching = pairs(res.matchingPairs)
      val gotCandidates = pairs(res.candidatePairs)
      val ownFirst = query.indices.forall { q =>
        val own = hgS.find(leafOf(query(q), hgS).toArray, 0)
        Seq(gotMatching, gotCandidates).forall { ps =>
          val mine = ps.filter(_._1 == q)
          !mine.exists(_._2 == own) || mine.head._2 == own
        }
      }
      val runs = Seq(res.matchingPairs, res.candidatePairs).forall { p =>
        query.indices.forall(q => (p.runStart(q) until p.runEnd(q)).map(p.q) == pairs(p).filter(_._1 == q).map(_._1))
      }
      Prop(hgS.numFilters == c.numFilters) :| s"$c: HG_SV has ${hgS.numFilters} filter pivots" &&
      Prop(gotMatching.toSet == want.matching) :| s"$c: matching differs" &&
      Prop(gotCandidates.toSet == want.candidates) :| s"$c: candidates differ" &&
      Prop(gotMatching.distinct.length == gotMatching.length &&
           gotCandidates.distinct.length == gotCandidates.length) :| s"$c: duplicate pairs" &&
      Prop(ownFirst) :| s"$c: a query vector's own leaf is not its first pair" &&
      Prop(runs) :| s"$c: a query vector's pairs are not the run recorded for it"
    })
  }

  test("no pair that Lemma 1 keeps lies in a leaf Block drops") {
    check(Prop.forAllNoShrink(genCase) { c =>
      val (lake, query) = c.instance
      val (hgS, res) = block(c.numPivots, c.levels, c.extent, lake, query, c.tau, c.quickBrowsing)
      val missed = lemma1Misses(hgS, res, lake, query, c.tau)
      Prop(missed.isEmpty) :| s"$c: Lemma 1 keeps (q, lake vector) pairs ${missed.take(5)} in dropped leaves"
    })
  }

  test("Block keeps a leaf whose vector lies one ulp below a grid line") {
    // at m = 6 the division puts x = 0.6250003125 in leaf 20, whose lower
    // edge is above x; q' + τ = x, so Lemma 1 keeps the pair
    val (lake, query) = (Array(Array(0.6250003125)), Array(Array(0.1250003125)))
    for (qb <- Seq(true, false)) {
      val (hgS, res) = block(1, 6, HierarchicalGrid.DefaultExtent, lake, query, 0.5, qb)
      assert(lemma1Misses(hgS, res, lake, query, 0.5).isEmpty, s"quick browsing $qb")
    }
  }

  test("Block keeps a code that holds an x' at exactly τ from q' by Lemma 1's expression") {
    // |q' − x'| == τ, but q' − τ rounds above the top edge of x's code 1420,
    // so testing the code box against q' − τ drops it: as a leaf at m = 16
    // and as the top code of a filter box
    val (x, q, tau) = (0.04336550019836425, 0.3125572277081925, 0.2691917275098282)
    val w = GridGeometry.codeWidth(HierarchicalGrid.DefaultExtent)
    assert(math.abs(q - x) == tau && GridGeometry.code(x, w) == 1420 && q - tau > 1421 * w)
    for (qb <- Seq(true, false)) {
      val (hgS, res) = block(1, 16, HierarchicalGrid.DefaultExtent, Array(Array(x)), Array(Array(q)), tau, qb)
      assert(lemma1Misses(hgS, res, Array(Array(x)), Array(Array(q)), tau).isEmpty, s"leaf, quick browsing $qb")
      val (lake, query) = (Array(Array(0.5, x)), Array(Array(0.5, q)))
      val (hgF, resF) = block(1, 1, HierarchicalGrid.DefaultExtent, lake, query, tau, qb)
      assert(hgF.numFilters == 1)
      assert(lemma1Misses(hgF, resF, lake, query, tau).isEmpty, s"filter box, quick browsing $qb")
    }
  }
}

object BlockPropertySpec {

  final case class Expected(matching: Set[(Int, Int)], candidates: Set[(Int, Int)])

  /** `HG_SV` over the mapped vectors `lake`, all in one column; vector x
    * is the one-dimensional `Array(x)`.
    */
  def hgSV(numPivots: Int, levels: Int, extent: Double, lake: Array[Array[Double]]): InvertedIndex =
    InvertedIndex.build(new HierarchicalGrid(numPivots, levels, extent), Array(0),
      new Array[Int](lake.length), lake, Array.tabulate(lake.length)(x => Array(x.toDouble)))

  /** `HG_SV` over `lake` at |P|, m and extent, and Block's pairs for `query`. */
  def block(numPivots: Int, levels: Int, extent: Double, lake: Array[Array[Double]], query: Array[Array[Double]],
            tau: Double, quickBrowsing: Boolean): (InvertedIndex, BlockResult) = {
    val hgS = hgSV(numPivots, levels, extent, lake)
    val hgQ = new HierarchicalGrid(numPivots, levels, extent)
    query.indices.foreach(q => hgQ.insert(query(q), q))
    (hgS, Block.run(hgQ, hgS, query, tau, quickBrowsing))
  }

  def pairs(p: CellPairs): IndexedSeq[(Int, Int)] = (0 until p.size).map(i => (p.q(i), p.cell(i)))

  /** The greatest code c in `[0, 2^16)` with `c·w <= d`, by binary search. */
  def code(d: Double, w: Double): Int = {
    var a = 0
    var b = 65535
    while (a < b) { val c = (a + b + 1) >>> 1; if (c * w <= d) a = c else b = c - 1 }
    a
  }

  /** The leaf of `hgS` that holds a vector mapped to `v`: the top m bits of
    * its codes on the grid's pivots.
    */
  def leafOf(v: Array[Double], hgS: InvertedIndex): Seq[Int] =
    (0 until hgS.numPivots).map(i => code(v(i), hgS.extent / 65536) >> (16 - hgS.levels))

  /** Every (q, leaf) pair classified on its own, by the lemmas written
    * out here on the leaf box `[lo, hi]` and on the filter boxes of the
    * leaf's `lake` vectors, rather than taken from [[GridGeometry]].
    */
  def oracle(hgS: InvertedIndex, lake: Array[Array[Double]], query: Array[Array[Double]], tau: Double,
             quickBrowsing: Boolean): Expected = {
    val np = hgS.numPivots
    val wf = hgS.extent / 65536
    val width = hgS.extent / (1 << hgS.levels)
    val matching = Set.newBuilder[(Int, Int)]
    val candidates = Set.newBuilder[(Int, Int)]
    for (id <- 0 until hgS.numCells) {
      val key = hgS.key(id)
      val members = lake.filter(v => leafOf(v, hgS) == key)
      val boxes = (np until np + hgS.numFilters).map(j => (members.map(v => code(v(j), wf)).min, members.map(v => code(v(j), wf)).max))
      for (q <- query.indices) {
        val qm = query(q)
        def lo(i: Int) = key(i) * width
        def hi(i: Int) = (key(i) + 1) * width
        val boxed = boxes.indices.exists { j =>
          val (a, b) = boxes(j)
          a * wf - qm(np + j) > tau || qm(np + j) - (b + 1) * wf > tau
        }
        val lemma3 = (0 until np).exists(i => lo(i) - qm(i) > tau || qm(i) - hi(i) > tau)
        val lemma5 = (0 until np).exists(i => tau - qm(i) >= 0 && hi(i) <= tau - qm(i))
        if (boxed) ()
        else if (quickBrowsing && key == leafOf(qm, hgS)) candidates += ((q, id))
        else if (!lemma3) (if (lemma5) matching else candidates) += ((q, id))
      }
    }
    Expected(matching.result(), candidates.result())
  }

  /** The (q, lake vector) pairs that Lemma 1 keeps, whose vector's leaf
    * Block does not emit for q. Lemma 1 is taken as Verify computes it:
    * `|q' − x'| <= τ` on every pivot, as doubles.
    */
  def lemma1Misses(hgS: InvertedIndex, res: BlockResult, lake: Array[Array[Double]],
                   query: Array[Array[Double]], tau: Double): Seq[(Int, Int)] = {
    // the leaf each lake vector went into, from the vector id it carries
    val cellOf = new Array[Int](lake.length)
    for (c <- 0 until hgS.numCells; p <- hgS.segStart(hgS.cellSeg(c)) until hgS.segStart(hgS.cellSeg(c + 1)))
      cellOf(hgS.vectors(p).toInt) = c
    val emitted = (pairs(res.matchingPairs) ++ pairs(res.candidatePairs)).toSet
    for {
      q <- query.indices
      x <- lake.indices
      if query(q).indices.forall(i => math.abs(query(q)(i) - lake(x)(i)) <= tau)
      if !emitted((q, cellOf(x)))
    } yield (q, x)
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
    numFilters <- Gen.frequency(1 -> Gen.const(0), 2 -> Gen.choose(1, 5))
    levels <- Gen.frequency(8 -> Gen.choose(1, 8), 1 -> Gen.const(16))
    extent <- Gen.oneOf(HierarchicalGrid.DefaultExtent, 1.0, 3.7)
    lakeSize <- Gen.choose(1, 80)
    qSize <- Gen.choose(1, 10)
    lake <- Gen.frequency(2 -> Gen.const(Uniform), 4 -> Gen.const(Clustered), 1 -> Gen.const(OneLeaf))
    tau <- Gen.oneOf(Zero, CellMultiple, AtLeastExtent, Small, Matching)
    onLines <- Gen.oneOf(true, false)
    quickBrowsing <- Gen.oneOf(true, false)
  } yield Case(seed, numPivots, numFilters, levels, extent, lakeSize, qSize, lake, tau, onLines, quickBrowsing)

  final case class Case(
      seed: Long,
      numPivots: Int,
      numFilters: Int,
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

    /** Mapped lake and query vectors, on the grid's pivots and then the
      * filter pivots. A third of the query vectors sit near a lake vector
      * and a third at it or τ from it on each pivot; with `onLines`, a
      * third of the grid values lie on grid lines and a third one ulp
      * below them, and on the filter pivots a sixth lie on code
      * lines and a sixth at the extent.
      */
    def instance: (Array[Array[Double]], Array[Array[Double]]) = {
      val rng = new Random(seed)
      val codeWidth = extent / 65536
      def clamp(v: Double) = math.min(extent, math.max(0.0, v))
      def value(near: Double, spread: Double): Double = clamp(if (onLines) rng.nextInt(3) match {
        case 0 => math.round(near / width + rng.nextInt(5) - 2) * width
        case 1 => math.nextDown(math.round(near / width + rng.nextInt(5) - 2) * width)
        case _ => near + (rng.nextDouble() - 0.5) * spread
      } else near + (rng.nextDouble() - 0.5) * spread)
      def filterValue(near: Double, spread: Double): Double = rng.nextInt(6) match {
        case 0 => extent
        case 1 => clamp(math.round(near / codeWidth + rng.nextInt(5) - 2) * codeWidth)
        case _ => clamp(near + (rng.nextDouble() - 0.5) * spread)
      }
      def point(near: Array[Double], gridSpread: Double, filterSpread: Double): Array[Double] =
        Array.tabulate(numPivots + numFilters) { i =>
          if (i < numPivots) value(near(i), gridSpread) else filterValue(near(i), filterSpread)
        }
      def anywhere(): Array[Double] = point(Array.fill(numPivots + numFilters)(rng.nextDouble() * extent), 0, 0)
      val center = Array.fill(numPivots + numFilters)(rng.nextDouble() * extent)
      val lakeVecs = lake match {
        case Uniform   => Array.fill(lakeSize)(anywhere())
        case Clustered => Array.fill(lakeSize)(point(center, 8 * width, 8 * tau.min(extent)))
        case OneLeaf   =>
          // all inside the cell of the centre, away from its edges
          val cell = center.take(numPivots).map(x => math.min(side - 1, (x / width).toInt))
          Array.fill(lakeSize)(Array.tabulate(numPivots + numFilters) { i =>
            if (i < numPivots) (cell(i) + 0.25 + rng.nextDouble() / 2) * width
            else filterValue(center(i), 8 * tau.min(extent))
          })
      }
      val query = Array.fill(qSize) {
        val x = lakeVecs(rng.nextInt(lakeVecs.length))
        rng.nextInt(3) match {
          case 0 => point(x, 2 * width, 4 * tau.min(extent))
          // on each pivot x's value or x's value ± τ: a near-tie of Lemma 1
          case 1 => x.map(v => clamp(v + (rng.nextInt(3) - 1) * tau))
          case _ => anywhere()
        }
      }
      (lakeVecs, query)
    }
  }
}
