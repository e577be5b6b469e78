package repro.core

import scala.collection.immutable.ArraySeq

/** Sparse grid over the pivot space (paper Section III-B), kept as its
  * non-empty leaf cells alone.
  *
  * A leaf is one coordinate in `[0, 2^m)` per pivot: the top m bits of the
  * pivot distance's 16-bit code ([[GridGeometry.code]]), so a leaf's box
  * brackets every vector in it. Leaves are sorted lexicographically and a
  * leaf's id is its rank. The paper's levels `l < m` are not stored: the
  * level-l cell of a vector is the top l bits of the same code, which is
  * `c >> (m − l)` for its leaf c, so inner cells nest on leaves by
  * definition.
  *
  * The grid is filled by [[insert]], each mapped vector with a payload:
  * `HG_Q` holds query vector ids, and [[InvertedIndex.build]] fills one
  * with repository vector ids to sort them into the leaves of `HG_SV`.
  *
  * `extent` defaults to slightly above the max distance between unit
  * vectors (2.0) so floating-point noise never pushes a mapped coordinate
  * outside the grid.
  */
final class HierarchicalGrid(
    val numDims: Int,
    val levels: Int,
    val extent: Double = HierarchicalGrid.DefaultExtent,
) {
  require(numDims >= 1 && levels >= 1 && levels <= HierarchicalGrid.MaxLevels && extent > 0,
    s"bad grid shape: dims=$numDims levels=$levels extent=$extent (levels must be 1..${HierarchicalGrid.MaxLevels})")

  import HierarchicalGrid.{CellKey, Leaf}

  private[this] val codeWidth = GridGeometry.codeWidth(extent)

  // Inserted leaf coordinates (row-major) and payloads. As of the last
  // `seal`, leaf c holds the payloads `members(start(c) until start(c + 1))`
  // in insertion order.
  private[this] var rows = new Array[Int](0)
  private[this] var ids = new Array[Int](0)
  private[this] var numInserted = 0
  private[this] var numSealed = 0
  private[this] var sorted = Array.emptyIntArray
  private[this] var start = new Array[Int](1)
  private[this] var members = Array.emptyIntArray

  /** Sort the inserted rows stably by leaf and find where each leaf begins. */
  private def seal(): Unit = if (numSealed != numInserted) {
    val n = numInserted
    val order = HierarchicalGrid.sortRows(n, rows, numDims, levels)
    val first = new Array[Int](n + 1)
    var numLeaves = 0
    for (i <- 0 until n)
      if (i == 0 || HierarchicalGrid.compareRows(rows, order(i - 1), rows, order(i) * numDims, numDims) != 0) {
        first(numLeaves) = i
        numLeaves += 1
      }
    first(numLeaves) = n
    sorted = new Array[Int](numLeaves * numDims)
    for (c <- 0 until numLeaves) System.arraycopy(rows, order(first(c)) * numDims, sorted, c * numDims, numDims)
    for (i <- 0 until n) order(i) = ids(order(i))
    start = java.util.Arrays.copyOf(first, numLeaves + 1)
    members = order
    numSealed = n
  }

  /** Leaf coordinates, row-major: leaf c is `cells(c·numDims until (c+1)·numDims)`. */
  private[core] def cells: Array[Int] = { seal(); sorted }

  /** Payloads of leaf c: `leafMembers(leafStart(c) until leafStart(c + 1))`. */
  private[core] def leafStart: Array[Int] = { seal(); start }
  private[core] def leafMembers: Array[Int] = { seal(); members }

  /** Number of non-empty leaf cells. */
  def numLeaves: Int = cells.length / numDims

  /** Grid coordinates of a mapped vector at `level` (clamped into range):
    * the top `level` bits of each code.
    */
  def coordsAt(mapped: Array[Double], level: Int): Array[Int] = {
    val out = new Array[Int](numDims)
    var i = 0
    while (i < numDims) {
      out(i) = GridGeometry.code(mapped(i), codeWidth) >> (GridGeometry.CodeBits - level)
      i += 1
    }
    out
  }

  /** Insert a mapped vector into its leaf with `payload`. */
  def insert(mapped: Array[Double], payload: Int): Unit = {
    if (numInserted == ids.length) {
      rows = java.util.Arrays.copyOf(rows, math.max(8, 2 * numInserted) * numDims)
      ids = java.util.Arrays.copyOf(ids, math.max(8, 2 * numInserted))
    }
    System.arraycopy(coordsAt(mapped, levels), 0, rows, numInserted * numDims, numDims)
    ids(numInserted) = payload
    numInserted += 1
  }

  private def leafAt(id: Int): Leaf = Leaf(id,
    ArraySeq.unsafeWrapArray(sorted.slice(id * numDims, (id + 1) * numDims)),
    ArraySeq.unsafeWrapArray(members.slice(start(id), start(id + 1))))

  /** All non-empty leaf cells, by id. */
  def leafCells: Iterator[Leaf] = Iterator.range(0, numLeaves).map(leafAt)

  /** The leaf cell with coordinates `key`, if non-empty. */
  def leaf(key: CellKey): Option[Leaf] =
    HierarchicalGrid.findKey(cells, numDims, key).map(leafAt)
}

object HierarchicalGrid {
  /** Leaf-cell identifier: absolute coordinates at the leaf level. */
  type CellKey = ArraySeq[Int]

  /** A non-empty leaf cell: its id, coordinates and payloads. */
  final case class Leaf(id: Int, key: CellKey, payloads: IndexedSeq[Int])

  /** Deepest level: a leaf coordinate is a prefix of a 16-bit code. */
  val MaxLevels: Int = GridGeometry.CodeBits

  /** Slightly above the unit-vector max distance 2.0 — see class doc. */
  val DefaultExtent: Double = 2.0 + 1e-6

  /** Index of the row `coords(off until off + n)` among the strictly
    * increasing rows of `cells`, or -1.
    */
  private[core] def find(cells: Array[Int], n: Int, coords: Array[Int], off: Int): Int = {
    var lo = 0
    var hi = cells.length / n
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val cmp = compareRows(cells, mid, coords, off, n)
      if (cmp == 0) return mid
      if (cmp < 0) lo = mid + 1 else hi = mid
    }
    -1
  }

  /** Index of the row `key` among the rows of `cells`, if there. */
  private[core] def findKey(cells: Array[Int], n: Int, key: CellKey): Option[Int] =
    Some(if (key.length == n) find(cells, n, key.toArray, 0) else -1).filter(_ >= 0)

  /** Row `r` of `a` against `b(off until off + n)`, lexicographically. */
  private[core] def compareRows(a: Array[Int], r: Int, b: Array[Int], off: Int, n: Int): Int = {
    var i = 0
    while (i < n && a(r * n + i) == b(off + i)) i += 1
    if (i == n) 0 else Integer.compare(a(r * n + i), b(off + i))
  }

  /** The rows `0 until n` of `rows` (`rows(e·numDims until (e+1)·numDims)`
    * for row e), ordered stably and lexicographically: an LSD radix sort,
    * one counting sort per byte of a coordinate.
    */
  private def sortRows(n: Int, rows: Array[Int], numDims: Int, levels: Int): Array[Int] = {
    var order = Array.range(0, n)
    for (d <- numDims - 1 to 0 by -1; shift <- 0 until levels by 8) {
      val start = new Array[Int](257)
      def byte(e: Int) = (rows(e * numDims + d) >>> shift) & 0xff
      for (i <- 0 until n) start(byte(order(i)) + 1) += 1
      for (k <- 0 until 256) start(k + 1) += start(k)
      val out = new Array[Int](n)
      for (i <- 0 until n) { val e = order(i); out(start(byte(e))) = e; start(byte(e)) += 1 }
      order = out
    }
    order
  }
}
