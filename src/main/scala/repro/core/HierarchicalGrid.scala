package repro.core

import scala.collection.immutable.ArraySeq

/** Sparse grid over the pivot space (paper Section III-B), kept as its
  * non-empty leaf cells alone.
  *
  * A leaf is one coordinate in `[0, 2^m)` per pivot, and its box in
  * dimension i is `[c_i·w, (c_i+1)·w]` with `w = extent / 2^m`. Leaves are
  * sorted lexicographically and a leaf's id is its rank. The paper's levels
  * `l < m` are not stored: the level-l cell of leaf c is `c >> k` with
  * `k = m - l`, and its box `(c >> k)·(extent / 2^l)` is the same double as
  * `((c >> k) << k)·w`, so inner boxes nest exactly on the leaf boxes.
  *
  * `HG_Q` is filled by [[insert]] with query vector ids as payloads;
  * `HG_SV` wraps an index's sorted `cellCoords` and takes no inserts.
  *
  * `HG_SV` also keeps a box per leaf on each of its `numFilters` filter
  * pivots, the index's pivots beyond the grid's `numDims`: the least and
  * greatest [[HierarchicalGrid.filterCode]] of its vectors' distances to
  * that pivot, `boxLo(c·numFilters + j)` and `boxHi(c·numFilters + j)` for
  * leaf c and filter pivot j. Lemma 1 on those pivots drops a leaf whose
  * box misses the query's code range, without adding grid dimensions.
  *
  * `extent` defaults to slightly above the max distance between unit
  * vectors (2.0) so floating-point noise never pushes a mapped coordinate
  * outside the grid.
  */
final class HierarchicalGrid private[core] (
    val numDims: Int,
    val levels: Int,
    val extent: Double,
    /** the leaves of an index (not copied, see [[HierarchicalGrid.cellsProblem]]), or null */
    fixedCells: Array[Int],
    val numFilters: Int,
    private[core] val boxLo: Array[Char],
    private[core] val boxHi: Array[Char],
) {
  def this(numDims: Int, levels: Int, extent: Double = HierarchicalGrid.DefaultExtent) =
    this(numDims, levels, extent, null, 0, Array.emptyCharArray, Array.emptyCharArray)

  require(numDims >= 1 && levels >= 1 && levels <= HierarchicalGrid.MaxLevels && extent > 0,
    s"bad grid shape: dims=$numDims levels=$levels extent=$extent (levels must be 1..${HierarchicalGrid.MaxLevels})")

  import HierarchicalGrid.{CellKey, Leaf, compareRows}

  /** Leaf cells per dimension, and their edge length. */
  val side: Int = 1 << levels
  val width: Double = widthAt(levels)
  /** Width of a filter pivot's code. */
  val filterWidth: Double = extent / HierarchicalGrid.FilterSide

  // Inserted leaf coordinates (row-major) and payloads. As of the last
  // `seal`, leaf c holds the payloads `members(start(c) until start(c + 1))`,
  // -1 where none was given.
  private[this] var rows = new Array[Int](0)
  private[this] var ids = new Array[Int](0)
  private[this] var numInserted = 0
  private[this] var numSealed = 0
  private[this] var sorted = if (fixedCells == null) Array.emptyIntArray else fixedCells
  private[this] var start: Array[Int] = null
  private[this] var members: Array[Int] = null

  private def seal(): Unit = if (numSealed != numInserted) {
    val order = HierarchicalGrid.sortRows(Array.range(0, numInserted), rows, numDims, levels)
    val first = order.indices.filter(i => i == 0 || compareRows(rows, order(i - 1), rows, order(i) * numDims, numDims) != 0)
    sorted = first.toArray.flatMap(i => rows.slice(order(i) * numDims, (order(i) + 1) * numDims))
    start = (first :+ numInserted).toArray
    members = order.map(ids)
    numSealed = numInserted
  }

  /** Leaf coordinates, row-major: leaf c is `cells(c·numDims until (c+1)·numDims)`. */
  private[core] def cells: Array[Int] = { seal(); sorted }

  /** Number of non-empty leaf cells. */
  def numLeaves: Int = cells.length / numDims

  /** Cell edge length at `level`. */
  def widthAt(level: Int): Double = extent / (1 << level)

  /** Grid coordinates of a mapped vector at `level` (clamped into range). */
  def coordsAt(mapped: Array[Double], level: Int): Array[Int] = {
    val cellsPerDim = 1 << level
    val w = widthAt(level)
    val out = new Array[Int](numDims)
    var i = 0
    while (i < numDims) {
      val c = (mapped(i) / w).toInt
      out(i) = math.min(cellsPerDim - 1, math.max(0, c))
      i += 1
    }
    out
  }

  /** Insert a mapped vector; returns its leaf's coordinates. `payload >= 0`
    * is recorded in the leaf (HG_Q stores query vector indices).
    */
  def insert(mapped: Array[Double], payload: Int): CellKey = {
    if (fixedCells != null) throw new UnsupportedOperationException("the leaves of an index are fixed")
    if (numInserted == ids.length) {
      rows = java.util.Arrays.copyOf(rows, math.max(8, 2 * numInserted) * numDims)
      ids = java.util.Arrays.copyOf(ids, math.max(8, 2 * numInserted))
    }
    System.arraycopy(coordsAt(mapped, levels), 0, rows, numInserted * numDims, numDims)
    ids(numInserted) = math.max(-1, payload)
    numInserted += 1
    ArraySeq.unsafeWrapArray(rows.slice((numInserted - 1) * numDims, numInserted * numDims))
  }

  /** Id of the leaf with coordinates `coords(off until off + numDims)`, or -1. */
  private[core] def find(coords: Array[Int], off: Int): Int = {
    val cs = cells
    var lo = 0
    var hi = cs.length / numDims
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val cmp = compareRows(cs, mid, coords, off, numDims)
      if (cmp == 0) return mid
      if (cmp < 0) lo = mid + 1 else hi = mid
    }
    -1
  }

  /** Coordinates of leaf `id`. */
  def key(id: Int): CellKey = ArraySeq.unsafeWrapArray(cells.slice(id * numDims, (id + 1) * numDims))

  private def leafAt(id: Int): Leaf = Leaf(id, key(id),
    if (start == null) ArraySeq.empty[Int] else ArraySeq.unsafeWrapArray(members.slice(start(id), start(id + 1)).filter(_ >= 0)))

  /** All non-empty leaf cells, by id. */
  def leafCells: Iterator[Leaf] = Iterator.range(0, numLeaves).map(leafAt)

  /** The leaf cell with coordinates `key`, if non-empty. */
  def leaf(key: CellKey): Option[Leaf] =
    Some(if (key.length == numDims) find(key.toArray, 0) else -1).filter(_ >= 0).map(leafAt)
}

object HierarchicalGrid {
  /** Leaf-cell identifier: absolute coordinates at the leaf level. */
  type CellKey = ArraySeq[Int]

  /** A non-empty leaf cell: its id, coordinates and payloads. */
  final case class Leaf(id: Int, key: CellKey, payloads: IndexedSeq[Int])

  /** Deepest level: `1 << level` cells per dimension must stay a positive
    * `Int`, or cell widths and boxes go wrong and the lemmas report false
    * matches.
    */
  val MaxLevels: Int = 30

  /** Slightly above the unit-vector max distance 2.0 — see class doc. */
  val DefaultExtent: Double = 2.0 + 1e-6

  /** Codes per filter pivot: a code fits a `Char`. */
  val FilterSide: Int = 1 << 16

  /** The code of a distance `d` in `[0, extent]` on a filter pivot with
    * codes of width `w = extent / FilterSide`: the greatest c with
    * `c·w <= d`, so that `c·w <= d <= (c+1)·w` holds as computed doubles,
    * the bounds Lemma 3 tests a box with. `d / w` is only a first guess:
    * `c·w` rounds.
    */
  private[core] def filterCode(d: Double, w: Double): Int = {
    var c = math.min(FilterSide - 1, math.max(0, (d / w).toInt))
    while (c > 0 && c * w > d) c -= 1
    while (c < FilterSide - 1 && (c + 1) * w <= d) c += 1
    c
  }

  /** Why `lo`/`hi` are not filter boxes: a box whose least code is above
    * its greatest.
    */
  private[core] def boxesProblem(lo: Array[Char], hi: Array[Char], numDims: Int, numFilters: Int): Option[String] = {
    var i = 0
    while (i < lo.length && lo(i) <= hi(i)) i += 1
    if (i == lo.length) None
    else Some(s"leaf cell ${i / numFilters} has box [${lo(i).toInt}, ${hi(i).toInt}] on pivot " +
      s"${numDims + i % numFilters}, least code above greatest")
  }

  /** Why `cells` are not the leaves of a grid: a coordinate outside
    * `[0, 2^levels)`, or rows not strictly increasing.
    */
  private[core] def cellsProblem(cells: Array[Int], numDims: Int, levels: Int): Option[String] = {
    var i = 0
    while (i < cells.length) {
      val c = i / numDims
      if (cells(i) < 0 || cells(i) >= (1 << levels))
        return Some(s"leaf cell $c has coordinate ${cells(i)} at pivot ${i % numDims}, outside [0, ${1 << levels})")
      if (i % numDims == 0 && c > 0 && compareRows(cells, c - 1, cells, i, numDims) >= 0)
        return Some(s"leaf cells ${c - 1} and $c are not in strictly increasing order")
      i += 1
    }
    None
  }

  /** Row `r` of `a` against `b(off until off + n)`, lexicographically. */
  private[core] def compareRows(a: Array[Int], r: Int, b: Array[Int], off: Int, n: Int): Int = {
    var i = 0
    while (i < n && a(r * n + i) == b(off + i)) i += 1
    if (i == n) 0 else Integer.compare(a(r * n + i), b(off + i))
  }

  /** `order` reordered stably by the rows `rows(e·numDims until
    * (e+1)·numDims)` of its elements e, lexicographically: an LSD radix
    * sort, one counting sort per byte of a coordinate.
    */
  private[core] def sortRows(order: Array[Int], rows: Array[Int], numDims: Int, levels: Int): Array[Int] = {
    var out = order
    for (d <- numDims - 1 to 0 by -1; shift <- 0 until levels by 8)
      out = stableSort(out, Array.tabulate(rows.length / numDims)(e => (rows(e * numDims + d) >>> shift) & 0xff), 256)
    out
  }

  /** `in` reordered stably by `key(in(i))` ∈ `[0, numKeys)`. */
  private[core] def stableSort(in: Array[Int], key: Array[Int], numKeys: Int): Array[Int] = {
    val start = new Array[Int](numKeys + 1)
    in.foreach(e => start(key(e) + 1) += 1)
    for (k <- 0 until numKeys) start(k + 1) += start(k)
    val out = new Array[Int](in.length)
    in.foreach { e => out(start(key(e))) = e; start(key(e)) += 1 }
    out
  }
}
