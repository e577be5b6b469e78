package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Sparse hierarchical grid over the pivot space (paper Section III-B).
  *
  * The pivot space `[0, extent]^|P|` is partitioned into `2^(|P|·i)`
  * hyper-cells at level `i ∈ [1..m]`; only non-empty cells are
  * materialized. Two grids are built per search: `HG_Q` (stores query
  * vector ids in its leaves) and `HG_SV` (leaves carry no vectors — the
  * target vectors live in the inverted index keyed by leaf cell).
  *
  * Every leaf gets a dense id, `0 until numLeaves`, in creation order; the
  * inverted index and the blocking output refer to leaf cells by that id.
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
  require(numDims >= 1 && levels >= 1 && levels <= HierarchicalGrid.MaxLevels,
    s"bad grid shape: dims=$numDims levels=$levels (levels must be 1..${HierarchicalGrid.MaxLevels})")

  import HierarchicalGrid.CellKey

  private val leafNodes = mutable.ArrayBuffer.empty[GridNode]

  val root: GridNode = new GridNode(0, Array.empty[Int])

  /** Number of materialized leaf cells. */
  def numLeaves: Int = leafNodes.length

  /** The leaf cell with dense id `id`. */
  def leafAt(id: Int): GridNode = leafNodes(id)

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

  /** Insert a mapped vector, materializing its path of cells; returns the
    * leaf cell. `payload >= 0` is recorded in the leaf (HG_Q stores query
    * vector indices; pass -1 for HG_SV).
    */
  def insert(mapped: Array[Double], payload: Int): GridNode = {
    val node = insertLeaf(coordsAt(mapped, levels))
    if (payload >= 0) node.payloads += payload
    node
  }

  /** Materialize the path to the leaf cell with coordinates `leaf`; returns
    * the leaf. A cell's coordinates at level l are its leaf coordinates
    * shifted right by `levels - l`, the same cell [[coordsAt]] gives at l.
    */
  def insertLeaf(leaf: Array[Int]): GridNode = {
    var node = root
    var lvl = 1
    while (lvl <= levels) {
      val shift = levels - lvl
      val coords = new Array[Int](numDims)
      var i = 0
      while (i < numDims) { coords(i) = leaf(i) >> shift; i += 1 }
      node = node.childOrCreate(ArraySeq.unsafeWrapArray(coords), lvl)
      lvl += 1
    }
    node
  }

  /** All materialized leaf cells. */
  def leafCells: Iterator[GridNode] = {
    def rec(n: GridNode): Iterator[GridNode] =
      if (n.level == levels) Iterator.single(n)
      else n.children.valuesIterator.flatMap(rec)
    rec(root)
  }

  /** Look up the leaf node for a leaf cell key, if materialized. */
  def leaf(key: CellKey): Option[GridNode] = {
    var node = root
    var lvl = 1
    while (lvl <= levels) {
      val shift = levels - lvl
      val k = ArraySeq.unsafeWrapArray(key.toArray.map(_ >> shift))
      node.children.get(k) match {
        case Some(c) => node = c
        case None    => return None
      }
      lvl += 1
    }
    Some(node)
  }

  /** A grid cell. `coords` are absolute per-dimension indices at `level`;
    * the root is level 0 with empty coords.
    */
  final class GridNode(val level: Int, val coords: Array[Int]) {
    val children: mutable.HashMap[CellKey, GridNode] = mutable.HashMap.empty
    /** Query vector indices (HG_Q leaves only). */
    val payloads: mutable.ArrayBuffer[Int] = new mutable.ArrayBuffer[Int](0)
    /** Dense leaf id (see class doc); -1 for inner cells. */
    val id: Int = if (level == levels) { leafNodes += this; leafNodes.length - 1 } else -1
    private[this] val width = widthAt(level)
    /** `children` values in iteration order; reset when a child is added.
      * Volatile so that concurrent searches only see a filled array.
      */
    @volatile private[this] var kidsCache: Array[HierarchicalGrid#GridNode] = null

    def isLeaf: Boolean = level == levels
    def key: CellKey = ArraySeq.unsafeWrapArray(coords)

    def childOrCreate(k: CellKey, lvl: Int): GridNode =
      children.getOrElseUpdate(k, { kidsCache = null; new GridNode(lvl, k.toArray) })

    /** The children as an array, in the order of `children.valuesIterator`. */
    def kids: Array[HierarchicalGrid#GridNode] = {
      var k = kidsCache
      if (k == null) { k = children.valuesIterator.toArray[HierarchicalGrid#GridNode]; kidsCache = k }
      k
    }

    /** Lower box corner in dimension i. */
    def lo(i: Int): Double = coords(i) * width
    /** Upper box corner in dimension i. */
    def hi(i: Int): Double = (coords(i) + 1) * width

    /** All leaf descendants (self if leaf). */
    def leaves: Iterator[GridNode] =
      if (isLeaf) Iterator.single(this)
      else children.valuesIterator.flatMap(_.leaves)

    /** All payloads in the subtree (query vector ids for HG_Q). */
    def subtreePayloads: Iterator[Int] =
      if (isLeaf) payloads.iterator
      else children.valuesIterator.flatMap(_.subtreePayloads)

    override def toString: String = s"Cell(l=$level, ${coords.mkString(",")})"
  }
}

object HierarchicalGrid {
  /** Leaf-cell identifier: absolute coordinates at the leaf level. */
  type CellKey = ArraySeq[Int]

  /** Deepest level: `1 << level` cells per dimension must stay a positive
    * `Int`, or cell widths and boxes go wrong and the lemmas report false
    * matches.
    */
  val MaxLevels: Int = 30

  /** Slightly above the unit-vector max distance 2.0 — see class doc. */
  val DefaultExtent: Double = 2.0 + 1e-6
}
