package repro.core

import scala.collection.immutable.AbstractSeq
import repro.core.HierarchicalGrid.CellKey

/** Pairs of (query vector index, leaf cell id) in two parallel arrays,
  * appended in the order blocking emits them. Entries at `size` and above
  * are spare capacity.
  *
  * Blocking emits each query vector's pairs as one run: those of q are
  * `runStart(q) until runEnd(q)`.
  */
final class CellPairs(numQ: Int) {
  var q: Array[Int] = new Array[Int](64)
  var cell: Array[Int] = new Array[Int](64)
  var size: Int = 0
  val runStart: Array[Int] = new Array[Int](numQ)
  val runEnd: Array[Int] = new Array[Int](numQ)

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
  * cell) of `index`. Matching pairs are proven matches (Lemma 5);
  * candidate pairs survived filtering (Lemma 3) and need verification.
  *
  * `matching` and `candidates` show the pairs with cell keys, as read-only
  * views over the arrays.
  */
final class BlockResult(
    val index: InvertedIndex,
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
        (pairs.q(i), index.key(pairs.cell(i)))
      }
    }
}

/** Blocking (paper Algorithm 1) + quick browsing (Section III-C), as one
  * exact range probe of the sorted leaves of `HG_SV`, the cells of the
  * inverted index, per query vector.
  *
  * One [[GridGeometry.bounds]] call gives q a Lemma 3 code range and a
  * Lemma 5 code limit on every pivot; on the grid's |P| pivots, shifted to
  * the leaf level, they bound leaf coordinates. For each first coordinate
  * in range, binary search bounds the run of leaves whose second is in
  * range, and integer compares test the rest and decide matching or
  * candidate. The paper's descent through the inner levels with Lemmas 4
  * and 6 would prune nothing more (see [[GridGeometry]]).
  *
  * Lemma 1 holds for any pivot, so the filter pivots beyond the grid's |P|
  * prune too: a leaf whose box (see [[InvertedIndex]]) misses q's code
  * range on one of them holds no match of q and is dropped before it is
  * emitted.
  */
object Block {

  /** Run quick browsing followed by Algorithm 1.
    *
    * Each query vector's pairs start with its own leaf, the cell of `index`
    * with the key of its `HG_Q` leaf, if there is one and its box passes.
    * Quick browsing makes that pair a candidate without a Lemma 3/5 test,
    * since the cell holds q; without it, the own leaf is tested like the
    * others. The other leaves follow in id order.
    *
    * @param hgQ         grid over the mapped query vectors (leaves hold q ids)
    * @param index       `HG_SV`: the leaves of the mapped repository vectors
    * @param queryMapped mapped query vectors (indexed by q id), on the grid's
    *                    pivots and then `index`'s filter pivots
    * @param tau         distance threshold
    */
  def run(
      hgQ: HierarchicalGrid,
      index: InvertedIndex,
      queryMapped: Array[Array[Double]],
      tau: Double,
      quickBrowsing: Boolean = true,
  ): BlockResult = {
    require(hgQ.numDims == index.numPivots && hgQ.levels == index.levels && hgQ.extent == index.extent,
      s"HG_Q (|P|=${hgQ.numDims}, m=${hgQ.levels}, extent ${hgQ.extent}) and " +
        s"HG_SV (|P|=${index.numPivots}, m=${index.levels}, extent ${index.extent}) must have the same shape")
    val np = index.numPivots
    val nf = index.numFilters
    require(queryMapped.forall(_.length >= np + nf),
      s"query vectors must be mapped on all ${np + nf} pivots of HG_SV")
    val numQ = queryMapped.length
    val mp = new CellPairs(numQ)
    val cp = new CellPairs(numQ)
    val res = new BlockResult(index, mp, cp)
    val w = index.codeWidth
    val shift = GridGeometry.CodeBits - index.levels
    val cells = index.cellCoords
    val n = index.numCells
    // q's code bounds on all pivots; the first np are then leaf bounds
    val lo = new Array[Int](np + nf)
    val hi = new Array[Int](np + nf)
    val lim = new Array[Int](np + nf)
    val boxLo = index.boxLo
    val boxHi = index.boxHi

    // Lemma 5: leaf r matches q if it is below q's limit on some grid pivot
    def emit(q: Int, r: Int): Unit = {
      var i = 0
      while (i < np && cells(r * np + i) >= lim(i)) i += 1
      if (i < np) mp.add(q, r) else cp.add(q, r)
    }

    // whether leaf r's box meets q's code range on every filter pivot
    def inBoxes(r: Int): Boolean = {
      val off = r * nf
      var j = 0
      while (j < nf && boxLo(off + j) <= hi(np + j) && lo(np + j) <= boxHi(off + j)) j += 1
      j == nf
    }

    // whether leaf r is in q's leaf range on the grid pivots from `from` on
    def inRange(r: Int, from: Int): Boolean = {
      var i = from
      while (i < np && lo(i) <= cells(r * np + i) && cells(r * np + i) <= hi(i)) i += 1
      i >= np
    }

    // the first leaf at or after `from` whose first two coordinates are at
    // least (x0, x1) (whose first is at least x0 if |P| = 1)
    def seek(from: Int, x0: Int, x1: Int): Int = {
      var a = from
      var b = n
      while (a < b) {
        val m = (a + b) >>> 1
        val c0 = cells(m * np)
        if (c0 < x0 || (c0 == x0 && np > 1 && cells(m * np + 1) < x1)) a = m + 1 else b = m
      }
      a
    }

    hgQ.leafCells.foreach { leaf =>
      val own = index.find(leaf.key.toArray, 0)
      leaf.payloads.foreach { q =>
        mp.runStart(q) = mp.size; cp.runStart(q) = cp.size
        val nonEmpty = GridGeometry.bounds(queryMapped(q), np + nf, tau, w, lo, hi, lim)
        var i = 0
        while (i < np) { lo(i) >>= shift; hi(i) >>= shift; lim(i) >>= shift; i += 1 }
        if (nonEmpty) {
          if (own >= 0 && inBoxes(own)) {
            if (quickBrowsing) cp.add(q, own)
            else if (inRange(own, 0)) emit(q, own)
          }
          val a1 = if (np > 1) lo(1) else 0
          val b1 = if (np > 1) hi(1) else 0
          var r = seek(0, lo(0), a1)
          while (r < n && cells(r * np) <= hi(0)) {
            val c0 = cells(r * np)
            if (np > 1 && cells(r * np + 1) < a1) r = seek(r + 1, c0, a1)
            else {
              // the leaves from r with first coordinate c0 and second in range
              val end = if (np > 1) seek(r, c0, b1 + 1) else seek(r, c0 + 1, 0)
              while (r < end) {
                if (inRange(r, 2) && r != own && inBoxes(r)) emit(q, r)
                r += 1
              }
              r = seek(r, c0 + 1, a1)
            }
          }
        }
        mp.runEnd(q) = mp.size; cp.runEnd(q) = cp.size
      }
    }
    res
  }
}
