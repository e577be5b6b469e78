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
  * distinct columns of a cell for Lemma 5/6 matches.
  *
  * Columns are dense indices `0 until numColumns`, in ascending order of
  * their ids `colIds`. Posting p's pivot image is
  * `mapped(p·numPivots until (p+1)·numPivots)` and its vector
  * `vectors(p·dim until (p+1)·dim)`.
  *
  * [[IndexFormat]] stores these arrays; `HG_SV` is rebuilt from the leaf
  * coordinates when an index is read back, with the same leaf ids.
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

  /** An index read back from its arrays. `HG_SV` is rebuilt with leaf c at
    * `cellCoords(c·numPivots until (c+1)·numPivots)`: inserting the leaves
    * in id order gives each its id back.
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
      mapped: Array[Double],
      vectors: Array[Double],
  ): InvertedIndex = {
    val grid = new HierarchicalGrid(numPivots, levels, extent)
    var c = 0
    while (c * numPivots < cellCoords.length) {
      grid.insertLeaf(java.util.Arrays.copyOfRange(cellCoords, c * numPivots, (c + 1) * numPivots))
      c += 1
    }
    new InvertedIndex(dim, colIds, cellCoords, cellSeg, segCol, segStart, mapped, vectors, grid)
  }

  /** `in` reordered stably by `key(in(i))` ∈ `[0, numKeys)`, and the
    * start of each key's run (`numKeys + 1` offsets).
    */
  private def stableSort(in: Array[Int], key: Array[Int], numKeys: Int): (Array[Int], Array[Int]) = {
    val start = new Array[Int](numKeys + 1)
    var i = 0
    while (i < in.length) { start(key(in(i)) + 1) += 1; i += 1 }
    var k = 0
    while (k < numKeys) { start(k + 1) += start(k); k += 1 }
    val fill = start.clone()
    val out = new Array[Int](in.length)
    i = 0
    while (i < in.length) { val kk = key(in(i)); out(fill(kk)) = in(i); fill(kk) += 1; i += 1 }
    (out, start)
  }

  /** Build from the repository vectors in input order.
    *
    * @param grid    `HG_SV` holding every vector; `cell(p)` is the id of the
    *                leaf vector p went into
    * @param colIds  column ids, ascending and distinct
    * @param col     dense column of vector p
    * @param mapped  pivot image of vector p
    * @param vecs    vector p
    */
  def build(
      grid: HierarchicalGrid,
      colIds: Array[Int],
      cell: Array[Int],
      col: Array[Int],
      mapped: Array[Array[Double]],
      vecs: Array[Array[Double]],
  ): InvertedIndex = {
    val n = cell.length
    val numCells = grid.numLeaves
    val np = grid.numDims
    val dim = if (n == 0) 0 else vecs(0).length

    // Two stable counting sorts, by column then by cell, order the
    // postings by (cell, column), ties in input order.
    val (byCol, _) = stableSort(Array.range(0, n), col, colIds.length)
    val (order, cellStart) = stableSort(byCol, cell, numCells)

    val cellSeg = new Array[Int](numCells + 1)
    val segCol = new mutable.ArrayBuilder.ofInt
    val segStart = new mutable.ArrayBuilder.ofInt
    var numSegs = 0
    var c = 0
    var p = 0
    while (c < numCells) {
      cellSeg(c) = numSegs
      var prevCol = -1
      while (p < cellStart(c + 1)) {
        val k = col(order(p))
        if (k != prevCol) { segCol += k; segStart += p; numSegs += 1; prevCol = k }
        p += 1
      }
      c += 1
    }
    cellSeg(numCells) = numSegs
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

    val cellCoords = new Array[Int](numCells * np)
    c = 0
    while (c < numCells) { System.arraycopy(grid.leafAt(c).coords, 0, cellCoords, c * np, np); c += 1 }

    new InvertedIndex(dim, colIds, cellCoords, cellSeg, segCol.result(), segStart.result(),
      flatMapped, flatVecs, grid)
  }
}
