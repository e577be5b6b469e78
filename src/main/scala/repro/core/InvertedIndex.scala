package repro.core

import scala.collection.immutable.ArraySeq
import repro.core.HierarchicalGrid.CellKey

/** `HG_SV` and the inverted index from its leaf cells to column postings
  * (paper Sections III-B/C, Fig. 4), as flat arrays.
  *
  * Cell c is the leaf of `HG_SV` with id c: its coordinates on the |P|
  * grid pivots are `cellCoords(c·numPivots until (c+1)·numPivots)`, the
  * leaves sorted lexicographically as in [[HierarchicalGrid]], and only
  * the non-empty ones are kept.
  *
  * Postings are sorted by (cell id, column); each run of one column's
  * postings inside one cell is a ''segment''. Segments give the DaaT
  * (document-at-a-time) order that lets verification process one column's
  * candidates together and skip them whole (joinability reached, q already
  * matched, or Lemma 7 from the column's match count), and the distinct
  * columns of a cell for Lemma 5 matches.
  *
  * Columns are dense indices `0 until numColumns`, in ascending order of
  * their ids `colIds`. Posting p's pivot image is its distances to the
  * grid's pivots as [[GridGeometry.code]]s,
  * `codes(p·numPivots until (p+1)·numPivots)`, whose top m bits are its
  * cell's coordinates, and its vector is `vectors(p·dim until (p+1)·dim)`.
  *
  * Each cell also keeps a box on each of its `numFilters` filter pivots,
  * the index's pivots beyond the grid's |P|: the least and greatest
  * [[GridGeometry.code]] of its vectors' distances to that pivot,
  * `boxLo(c·numFilters + j)` and `boxHi(c·numFilters + j)` for cell c and
  * filter pivot j. Lemma 1 on those pivots drops a cell whose box misses
  * the query's code range, without adding grid dimensions.
  *
  * [[IndexFormat]] stores these arrays; reading them back rebuilds nothing.
  */
final class InvertedIndex private[core] (
    /** |P|, the grid's pivots */
    val numPivots: Int,
    val levels: Int,
    val extent: Double,
    val dim: Int,
    /** ids of the dense columns, ascending */
    val colIds: Array[Int],
    /** leaf coordinates of cell c: `cellCoords(c·numPivots until (c+1)·numPivots)` */
    private[core] val cellCoords: Array[Int],
    /** segments of cell c: `cellSeg(c) until cellSeg(c + 1)` */
    val cellSeg: Array[Int],
    /** dense column of segment s */
    val segCol: Array[Int],
    /** postings of segment s: `segStart(s) until segStart(s + 1)` */
    val segStart: Array[Int],
    val numFilters: Int,
    private[core] val boxLo: Array[Char],
    private[core] val boxHi: Array[Char],
    val codes: Array[Char],
    val vectors: Array[Double],
) {

  /** Width of a code, on every pivot: a leaf spans `2^(16 − levels)` codes. */
  val codeWidth: Double = GridGeometry.codeWidth(extent)

  def numCells: Int = cellSeg.length - 1
  def numColumns: Int = colIds.length

  /** Id of the cell with coordinates `coords(off until off + numPivots)`, or -1. */
  private[core] def find(coords: Array[Int], off: Int): Int =
    HierarchicalGrid.find(cellCoords, numPivots, coords, off)

  /** Coordinates of cell `id`. */
  def key(id: Int): CellKey = ArraySeq.unsafeWrapArray(cellCoords.slice(id * numPivots, (id + 1) * numPivots))

  /** Id of the cell with coordinates `key`, if the index has it. */
  def leaf(key: CellKey): Option[Int] = HierarchicalGrid.findKey(cellCoords, numPivots, key)

  /** Positions of the postings of a leaf cell (empty if not materialized). */
  def postingsIn(cell: CellKey): Range =
    leaf(cell).fold(0 until 0)(c => segStart(cellSeg(c)) until segStart(cellSeg(c + 1)))
}

object InvertedIndex {

  /** Build from the repository vectors in input order.
    *
    * The vectors are inserted into `grid` by column, with their input
    * index as payload, so each leaf's members, read back in order, are its
    * postings sorted by column, ties in input order.
    *
    * @param grid    an empty grid of the index's shape (|P|, m, extent)
    * @param colIds  column ids, ascending and distinct
    * @param col     dense column of vector p
    * @param mapped  pivot image of vector p: the grid's |P| pivots first,
    *                then the filter pivots, the same number for every p
    * @param vecs    vector p
    */
  def build(
      grid: HierarchicalGrid,
      colIds: Array[Int],
      col: Array[Int],
      mapped: Array[Array[Double]],
      vecs: Array[Array[Double]],
  ): InvertedIndex = {
    val n = col.length
    val np = grid.numDims
    val nf = if (n == 0) 0 else mapped(0).length - np
    val dim = if (n == 0) 0 else vecs(0).length
    val codeWidth = GridGeometry.codeWidth(grid.extent)
    require(grid.numLeaves == 0, "the grid to build an index in must be empty")

    // a counting sort by column, then into the grid in that order
    val colStart = new Array[Int](colIds.length + 1)
    for (p <- 0 until n) colStart(col(p) + 1) += 1
    for (k <- 0 until colIds.length) colStart(k + 1) += colStart(k)
    val byCol = new Array[Int](n)
    for (p <- 0 until n) { byCol(colStart(col(p))) = p; colStart(col(p)) += 1 }
    for (p <- byCol.indices) grid.insert(mapped(byCol(p)), byCol(p))

    val cellCoords = grid.cells
    val leafStart = grid.leafStart
    val order = grid.leafMembers
    val numCells = leafStart.length - 1
    val cellSeg = new Array[Int](numCells + 1)
    val segCol = new Array[Int](n)
    val segStart = new Array[Int](n + 1)
    // posting p's codes, and cell c's filter box: its vectors' least and greatest code
    val codes = new Array[Char](n * np)
    val boxLo = new Array[Char](numCells * nf)
    val boxHi = new Array[Char](numCells * nf)
    var numSegs = 0
    var c = 0
    while (c < numCells) {
      cellSeg(c) = numSegs
      var p = leafStart(c)
      while (p < leafStart(c + 1)) {
        val e = order(p)
        val first = p == leafStart(c)
        if (first || col(e) != col(order(p - 1))) { segCol(numSegs) = col(e); segStart(numSegs) = p; numSegs += 1 }
        for (i <- 0 until np) codes(p * np + i) = GridGeometry.code(mapped(e)(i), codeWidth).toChar
        var j = 0
        while (j < nf) {
          val code = GridGeometry.code(mapped(e)(np + j), codeWidth).toChar
          val b = c * nf + j
          if (first || code < boxLo(b)) boxLo(b) = code
          if (first || code > boxHi(b)) boxHi(b) = code
          j += 1
        }
        p += 1
      }
      c += 1
    }
    cellSeg(numCells) = numSegs
    segStart(numSegs) = n

    // Copy in input order, which reads the source vectors sequentially.
    val pos = new Array[Int](n)
    for (p <- 0 until n) pos(order(p)) = p
    val flatVecs = new Array[Double](n * dim)
    for (src <- 0 until n) System.arraycopy(vecs(src), 0, flatVecs, pos(src) * dim, dim)

    new InvertedIndex(np, grid.levels, grid.extent, dim, colIds, cellCoords, cellSeg,
      java.util.Arrays.copyOf(segCol, numSegs), java.util.Arrays.copyOf(segStart, numSegs + 1),
      nf, boxLo, boxHi, codes, flatVecs)
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
      if (i % numDims == 0 && c > 0 && HierarchicalGrid.compareRows(cells, c - 1, cells, i, numDims) >= 0)
        return Some(s"leaf cells ${c - 1} and $c are not in strictly increasing order")
      i += 1
    }
    None
  }

  /** Why `cellSeg`, `segStart` and `segCol` do not split `numPostings`
    * postings into segments of `numColumns` columns: `cellSeg` must rise
    * strictly from 0 to the segment count and `segStart` from 0 to
    * `numPostings` (no cell or segment is empty), and every column must be
    * one of the `numColumns`.
    */
  private[core] def segmentsProblem(cellSeg: Array[Int], segStart: Array[Int], segCol: Array[Int],
                                    numColumns: Int, numPostings: Int): Option[String] = {
    def rising(name: String, a: Array[Int], end: Int): Option[String] = {
      var i = 1
      while (i < a.length && a(i - 1) < a(i)) i += 1
      if (a(0) != 0 || a.last != end) Some(s"$name runs from ${a(0)} to ${a.last}, not from 0 to $end")
      else Option.when(i < a.length)(s"$name($i) = ${a(i)} is not above $name(${i - 1}) = ${a(i - 1)}")
    }
    var s = 0
    while (s < segCol.length && segCol(s) >= 0 && segCol(s) < numColumns) s += 1
    rising("cellSeg", cellSeg, segCol.length).orElse(rising("segStart", segStart, numPostings))
      .orElse(Option.when(s < segCol.length)(s"segment $s has column ${segCol(s)}, outside [0, $numColumns)"))
  }

  /** Why `lo`/`hi` are not filter boxes: a box whose least code is above
    * its greatest.
    */
  private[core] def boxesProblem(lo: Array[Char], hi: Array[Char], numPivots: Int, numFilters: Int): Option[String] = {
    var i = 0
    while (i < lo.length && lo(i) <= hi(i)) i += 1
    if (i == lo.length) None
    else Some(s"leaf cell ${i / numFilters} has box [${lo(i).toInt}, ${hi(i).toInt}] on pivot " +
      s"${numPivots + i % numFilters}, least code above greatest")
  }
}
