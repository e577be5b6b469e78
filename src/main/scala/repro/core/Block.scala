package repro.core

import scala.collection.immutable.AbstractSeq
import repro.core.HierarchicalGrid.CellKey

/** Pairs of (query vector index, leaf cell id) in two parallel arrays,
  * appended in the order blocking emits them. Entries at `size` and above
  * are spare capacity.
  */
final class CellPairs {
  var q: Array[Int] = new Array[Int](64)
  var cell: Array[Int] = new Array[Int](64)
  var size: Int = 0

  def add(qi: Int, cellId: Int): Unit = {
    if (size == q.length) {
      q = java.util.Arrays.copyOf(q, size * 2)
      cell = java.util.Arrays.copyOf(cell, size * 2)
    }
    q(size) = qi
    cell(size) = cellId
    size += 1
  }
}

/** Output of the blocking phase: pairs of (query vector index, target leaf
  * cell) of `grid`. Matching pairs are proven matches (Lemmas 5/6);
  * candidate pairs survived filtering (Lemmas 3/4) and need verification.
  *
  * `matching` and `candidates` show the pairs with cell keys, as read-only
  * views over the arrays.
  */
final class BlockResult(
    val grid: HierarchicalGrid,
    val matchingPairs: CellPairs,
    val candidatePairs: CellPairs,
) {
  def matching: IndexedSeq[(Int, CellKey)] = keyed(matchingPairs)
  def candidates: IndexedSeq[(Int, CellKey)] = keyed(candidatePairs)

  private def keyed(pairs: CellPairs): IndexedSeq[(Int, CellKey)] =
    new AbstractSeq[(Int, CellKey)] with IndexedSeq[(Int, CellKey)] {
      def length: Int = pairs.size
      def apply(i: Int): (Int, CellKey) = {
        if (i < 0 || i >= pairs.size) throw new IndexOutOfBoundsException(s"$i of ${pairs.size}")
        (pairs.q(i), grid.leafAt(pairs.cell(i)).key)
      }
    }
}

/** Blocking (paper Algorithm 1) + quick browsing (Section III-C).
  *
  * A dual descent over `HG_Q` and `HG_SV` built with the same number of
  * levels: same-level cells are compared with the cell–cell lemmas and
  * expanded simultaneously; at the leaf level the vector–cell lemmas
  * produce the final matching/candidate pairs.
  */
object Block {

  /** Run quick browsing followed by Algorithm 1.
    *
    * Quick browsing: a query leaf cell whose key also exists in `HG_SV`
    * refers to the same space region, so it can never be filtered by
    * Lemma 3/4 — its query vectors pair with that target cell as
    * candidates immediately, and the recursive descent skips identical
    * leaf pairs to avoid redundant work.
    *
    * @param hgQ         grid over the mapped query vectors (leaves hold q ids)
    * @param hgS         grid over the mapped repository vectors
    * @param queryMapped mapped query vectors (indexed by q id)
    * @param tau         distance threshold
    */
  def run(
      hgQ: HierarchicalGrid,
      hgS: HierarchicalGrid,
      queryMapped: Array[Array[Double]],
      tau: Double,
      quickBrowsing: Boolean = true,
  ): BlockResult = {
    require(hgQ.levels == hgS.levels, "HG_Q and HG_SV must share the level count")
    val res = new BlockResult(hgS, new CellPairs, new CellPairs)

    if (quickBrowsing) {
      hgQ.leafCells.foreach { qLeaf =>
        hgS.leaf(qLeaf.key).foreach { sLeaf =>
          qLeaf.payloads.foreach(q => res.candidatePairs.add(q, sLeaf.id))
        }
      }
    }

    descend(hgQ.root, hgS.root, queryMapped, tau, quickBrowsing, res)
    res
  }

  private def descend(
      cQ: HierarchicalGrid#GridNode,
      cS: HierarchicalGrid#GridNode,
      queryMapped: Array[Array[Double]],
      tau: Double,
      quickBrowsing: Boolean,
      res: BlockResult,
  ): Unit = {
    val qKids = cQ.kids
    val sKids = cS.kids
    var a = 0
    while (a < qKids.length) {
      val cq = qKids(a)
      var b = 0
      while (b < sKids.length) {
        val cs = sKids(b)
        if (cq.isLeaf && cs.isLeaf) {
          // handled by quick browsing already?
          val sameCell = java.util.Arrays.equals(cq.coords, cs.coords)
          if (!(quickBrowsing && sameCell)) {
            val qs = cq.payloads
            var i = 0
            while (i < qs.length) {
              val q = qs(i)
              val qm = queryMapped(q)
              if (GridGeometry.vectorCellMatched(cs, qm, tau)) res.matchingPairs.add(q, cs.id)
              else if (!GridGeometry.vectorCellFiltered(cs, qm, tau)) res.candidatePairs.add(q, cs.id)
              i += 1
            }
          }
        } else if (GridGeometry.cellCellMatched(cs, cq, tau)) {
          val qs = cq.subtreePayloads.toArray
          cs.leaves.foreach { leaf =>
            var i = 0
            while (i < qs.length) { res.matchingPairs.add(qs(i), leaf.id); i += 1 }
          }
        } else if (!GridGeometry.cellCellFiltered(cs, cq, tau)) {
          descend(cq, cs, queryMapped, tau, quickBrowsing, res)
        }
        b += 1
      }
      a += 1
    }
  }
}
