package repro.core

import scala.collection.mutable
import repro.core.HierarchicalGrid.CellKey

/** Inverted index from the leaf cells of `HG_SV` to column postings
  * (paper Section III-C, Fig. 4), as flat arrays.
  *
  * Postings are sorted by (leaf cell id, column); each run of one column's
  * postings inside one cell is a ''segment''. Segments give the DaaT
  * (document-at-a-time) order that lets verification process one column's
  * candidates together and apply the early-termination rules (joinability
  * reached, or Lemma 7 says the column can no longer reach `T`), and the
  * distinct columns of a cell for Lemma 5 matches.
  *
  * Columns are dense indices `0 until numColumns`, in ascending order of
  * their ids `colIds`. Posting p's pivot image is
  * `mapped(p·numPivots until (p+1)·numPivots)` and its vector
  * `vectors(p·dim until (p+1)·dim)`.
  *
  * Cell c is leaf c of `HG_SV`, which wraps `cellCoords` and the leaves'
  * filter-pivot boxes. [[IndexFormat]] stores these arrays; reading them
  * back rebuilds nothing.
  */
final class InvertedIndex private (
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
    val mapped: Array[Double],
    val vectors: Array[Double],
    /** `HG_SV`: its leaf with id c is cell c of this index. */
    val grid: HierarchicalGrid,
) {

  def numPivots: Int = grid.numDims
  def levels: Int = grid.levels
  def extent: Double = grid.extent
  def numCells: Int = cellSeg.length - 1
  def numColumns: Int = colIds.length

  /** Positions of the postings of a leaf cell (empty if not materialized). */
  def postingsIn(cell: CellKey): Range = grid.leaf(cell) match {
    case Some(l) => segStart(cellSeg(l.id)) until segStart(cellSeg(l.id + 1))
    case None    => Range(0, 0)
  }
}

object InvertedIndex {

  /** An index over its arrays; `cellCoords` must be strictly increasing
    * rows of coordinates in `[0, 2^levels)`, and each filter box's least
    * code at most its greatest.
    */
  private[core] def fromArrays(
      numPivots: Int,
      dim: Int,
      levels: Int,
      extent: Double,
      colIds: Array[Int],
      cellCoords: Array[Int],
      cellSeg: Array[Int],
      segCol: Array[Int],
      segStart: Array[Int],
      numFilters: Int,
      boxLo: Array[Char],
      boxHi: Array[Char],
      mapped: Array[Double],
      vectors: Array[Double],
  ): InvertedIndex =
    new InvertedIndex(dim, colIds, cellCoords, cellSeg, segCol, segStart, mapped, vectors,
      new HierarchicalGrid(numPivots, levels, extent, cellCoords, numFilters, boxLo, boxHi))

  /** Build from the repository vectors in input order.
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
    val leaf = new Array[Int](n * np)
    for (p <- 0 until n) System.arraycopy(grid.coordsAt(mapped(p), grid.levels), 0, leaf, p * np, np)

    // Stable sorts, by column and then by leaf coordinates, order the
    // postings by (cell, column), ties in input order.
    val order = HierarchicalGrid.sortRows(
      HierarchicalGrid.stableSort(Array.range(0, n), col, colIds.length), leaf, np, grid.levels)

    val cellCoords = new mutable.ArrayBuilder.ofInt
    val cellSeg = new mutable.ArrayBuilder.ofInt
    val segCol = new mutable.ArrayBuilder.ofInt
    val segStart = new mutable.ArrayBuilder.ofInt
    // the filter box of leaf c: the least and greatest code of its vectors
    val boxLo = new Array[Char](n * nf)
    val boxHi = new Array[Char](n * nf)
    var numSegs = 0
    var c = -1
    var p = 0
    while (p < n) {
      val e = order(p)
      val newCell = p == 0 || HierarchicalGrid.compareRows(leaf, order(p - 1), leaf, e * np, np) != 0
      if (newCell) { cellCoords.addAll(leaf, e * np, np); cellSeg += numSegs; c += 1 }
      if (newCell || col(e) != col(order(p - 1))) { segCol += col(e); segStart += p; numSegs += 1 }
      var j = 0
      while (j < nf) {
        val k = HierarchicalGrid.filterCode(mapped(e)(np + j), grid.filterWidth).toChar
        val b = c * nf + j
        if (newCell || k < boxLo(b)) boxLo(b) = k
        if (newCell || k > boxHi(b)) boxHi(b) = k
        j += 1
      }
      p += 1
    }
    cellSeg += numSegs
    segStart += n

    // Copy in input order, which reads the source vectors sequentially.
    val pos = new Array[Int](n)
    p = 0
    while (p < n) { pos(order(p)) = p; p += 1 }
    val flatMapped = new Array[Double](n * np)
    val flatVecs = new Array[Double](n * dim)
    var src = 0
    while (src < n) {
      System.arraycopy(mapped(src), 0, flatMapped, pos(src) * np, np)
      System.arraycopy(vecs(src), 0, flatVecs, pos(src) * dim, dim)
      src += 1
    }

    val boxes = (c + 1) * nf
    fromArrays(np, dim, grid.levels, grid.extent, colIds, cellCoords.result(), cellSeg.result(), segCol.result(),
      segStart.result(), nf, java.util.Arrays.copyOf(boxLo, boxes), java.util.Arrays.copyOf(boxHi, boxes),
      flatMapped, flatVecs)
  }
}
