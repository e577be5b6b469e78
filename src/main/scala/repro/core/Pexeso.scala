package repro.core

/** Verification strategy selector: `Pexeso` = inverted index + DaaT +
  * Lemmas 1/2/7 (the paper's method); `PexesoH` = the same walk without
  * Lemmas 1/2/7 (the ablation "PEXESO-H" of Section VI-A); see [[Verify.pexeso]].
  */
sealed trait VerifyMode
object VerifyMode {
  case object Pexeso  extends VerifyMode
  case object PexesoH extends VerifyMode
}

/** A built PEXESO index over one repository (or one partition of it):
  * selected pivots and the leaf-cell inverted index, whose cells are the
  * grid leaves `HG_SV` of the mapped repository vectors (paper Sections
  * III-B/C). Pivots beyond the grid's |P| are filter pivots: the index
  * keeps a box of each leaf on them, and Block drops the leaves whose box
  * rules out q.
  *
  * The out-of-core path (Section IV) spills one index per partition to
  * disk in [[IndexFormat]] and loads them back one at a time.
  *
  * Inputs are checked once at the API boundary: column ids must be unique,
  * every vector must have the index's dimension and finite values, m must
  * be at most [[HierarchicalGrid.MaxLevels]], τ must be at least 0, T must
  * lie in (0, 1], and every pivot distance must lie inside the grid
  * extent. Beyond the extent the grid would clamp a vector into the last
  * cell, and the cell lemmas would then prune real matches.
  */
final class PexesoIndex(
    val pivots: PivotSet,
    val inverted: InvertedIndex,
    val buildNanos: Long,
) {

  /** |P|, the grid's pivots: the first of `pivots`, which also holds the
    * filter pivots.
    */
  def numPivots: Int = inverted.numPivots
  def levels: Int = inverted.levels
  def numColumns: Int = inverted.numColumns
  /** `HG_SV`: the inverted index, whose cells are its leaves. */
  def grid: InvertedIndex = inverted

  /** Joinable column search (paper Algorithm 3).
    *
    * @param query unit vectors of the query column Q
    * @param tau   distance threshold (absolute, e.g. 0.06 * 2 for "6%")
    * @param tFrac joinability threshold T as a fraction of |Q|
    */
  def search(
      query: Array[Array[Double]],
      tau: Double,
      tFrac: Double,
      mode: VerifyMode = VerifyMode.Pexeso,
  ): SearchResult = {
    PexesoIndex.checkThresholds(tau, tFrac)
    require(query.nonEmpty, "empty query")
    query.foreach(PexesoIndex.checkVector(_, inverted.dim, "query vector"))
    val tAbs = Verify.absThreshold(tFrac, query.length)

    val t0 = System.nanoTime()
    val queryMapped = pivots.mapAll(query)
    queryMapped.foreach(PexesoIndex.checkMapped(_, inverted.extent, "query vector"))
    val hgQ = new HierarchicalGrid(numPivots, levels, inverted.extent)
    var q = 0
    while (q < query.length) { hgQ.insert(queryMapped(q), q); q += 1 }
    val block = Block.run(hgQ, inverted, queryMapped, tau)
    val t1 = System.nanoTime()

    val (joinable, stats) = Verify.pexeso(block, inverted, queryMapped, query, tau, tAbs, mode)
    val t2 = System.nanoTime()

    SearchResult(
      joinable = joinable,
      blockNanos = t1 - t0,
      verifyNanos = t2 - t1,
      distanceComputations = stats.distanceComputations,
      candidatePairs = block.candidatePairs.size.toLong,
      matchingPairs = block.matchingPairs.size.toLong,
    )
  }
}

object PexesoIndex {

  /** Most vectors sampled for pivot selection. */
  private val PivotSample = 2000

  /** Pivots taken in all, |P_v|, when |P| is below it: those beyond the
    * grid's |P| are filter pivots, which prune leaves by their boxes.
    */
  private val AllPivots = 16

  // Plain `if`s rather than `require`, whose by-name message would be a
  // closure allocated per coordinate.
  private def checkVector(v: Array[Double], dim: Int, what: String): Unit = {
    if (v.length != dim)
      throw new IllegalArgumentException(s"$what has dimension ${v.length}, expected $dim")
    var i = 0
    while (i < v.length) {
      if (!java.lang.Double.isFinite(v(i)))
        throw new IllegalArgumentException(s"$what has a non-finite value ${v(i)} at $i")
      i += 1
    }
  }

  /** τ must be a distance, NaN excluded, and T a fraction in (0, 1]; any
    * other value would not fail but give a wrong answer.
    */
  private[repro] def checkThresholds(tau: Double, tFrac: Double): Unit = {
    require(tau >= 0, s"tau $tau is not a distance >= 0")
    require(tFrac > 0 && tFrac <= 1, s"tFrac $tFrac is not in (0, 1]")
  }

  /** The column ids, sorted; a repeated id would merge two columns. */
  private def sortedColumnIds(columns: Seq[ColumnVectors]): Array[Int] = {
    val ids = columns.iterator.map(_.colId).toArray.sorted
    var i = 1
    while (i < ids.length) {
      if (ids(i) == ids(i - 1))
        throw new IllegalArgumentException(s"column id ${ids(i)} is repeated")
      i += 1
    }
    ids
  }

  private def checkMapped(m: Array[Double], extent: Double, what: String): Unit = {
    var i = 0
    while (i < m.length) {
      if (!(m(i) <= extent))
        throw new IllegalArgumentException(s"$what is ${m(i)} from pivot $i, beyond the grid extent $extent")
      i += 1
    }
  }

  /** Build a PEXESO index for a repository of columns.
    *
    * Pipeline (paper Section III-E): PCA-based pivot selection of
    * |P_v| = max(|P|, 16) pivots on a sample (O(|S_V|)), pivot mapping of
    * every vector (O(|P_v|·|S_V|)), and the inverted index over the sorted
    * leaf cells, one radix pass per byte of a leaf coordinate
    * (O(|P|·⌈m/8⌉·|S_V| + D)), with each leaf's box on the |P_v| − |P|
    * filter pivots.
    *
    * @param columns   the repository, with unique column ids
    * @param numPivots |P|
    * @param levels    m
    */
  def build(
      columns: Seq[ColumnVectors],
      numPivots: Int,
      levels: Int,
  ): PexesoIndex = {
    require(columns.nonEmpty, "empty repository")
    val t0 = System.nanoTime()

    val all: Array[Array[Double]] = columns.iterator.flatMap(_.vectors).toArray
    val dim = all(0).length
    all.foreach(checkVector(_, dim, "repository vector"))
    require(all.length.toLong * math.max(dim, math.max(numPivots, AllPivots)) <= Int.MaxValue,
      s"${all.length} vectors of dimension $dim do not fit one flat index")
    // the grid's pivots come first: pcaPivots(s, k) starts with pcaPivots(s, numPivots)
    val pivots = PivotSelection.pcaPivots(
      PivotSelection.sample(scala.collection.immutable.ArraySeq.unsafeWrapArray(all), PivotSample),
      math.max(numPivots, AllPivots))

    val colIds = sortedColumnIds(columns)
    // a lake of fewer than numPivots vectors yields fewer pivots
    val grid = new HierarchicalGrid(math.min(numPivots, pivots.numPivots), levels)
    val col = new Array[Int](all.length)
    val mapped = new Array[Array[Double]](all.length)
    var p = 0
    columns.foreach { c =>
      val k = java.util.Arrays.binarySearch(colIds, c.colId)
      c.vectors.foreach { v =>
        val m = pivots.map(v)
        checkMapped(m, grid.extent, "repository vector")
        mapped(p) = m
        col(p) = k
        p += 1
      }
    }
    val inverted = InvertedIndex.build(grid, colIds, col, mapped, all)
    val t1 = System.nanoTime()

    new PexesoIndex(pivots, inverted, buildNanos = t1 - t0)
  }
}
