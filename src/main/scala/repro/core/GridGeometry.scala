package repro.core

/** Lemmas 3 and 5 (paper Section III-B) on the leaf cell
  * `cell(off until off + np)` of width `w`, whose box in dimension i is
  * `[c_i·w, (c_i+1)·w]`. The mapped query vector `qm` may hold more
  * pivots than the grid's `np`; only its first `np` are read.
  *
  * The tests are conservative: "filter" only fires when no contained
  * vector can match the query (soundness of pruning), "match" only fires
  * when every contained vector must match (soundness of counting) — both
  * follow from Lemmas 1–2 applied to box extremes.
  *
  * Lemmas 4 and 6, the cell–cell forms, add nothing: since inner boxes
  * nest exactly on leaf boxes (see [[HierarchicalGrid]]), a level-l cell
  * that Lemma 4 filters (Lemma 6 matches) for a query cell holds only
  * leaves that Lemma 3 filters (Lemma 5 matches) for each query vector
  * inside that cell's box.
  */
object GridGeometry {

  private def above(c: Int, w: Double, y: Double): Boolean = c * w > y
  private def below(c: Int, w: Double, x: Double): Boolean = (c + 1) * w < x

  /** Lemma 3 (vector–cell filtering): the leaf does not intersect the
    * square query region `SQR(q', τ)` — no vector in it matches `q`.
    */
  def vectorCellFiltered(cell: Array[Int], off: Int, np: Int, w: Double, qm: Array[Double], tau: Double): Boolean =
    (0 until np).exists(i => above(cell(off + i), w, qm(i) + tau) || below(cell(off + i), w, qm(i) - tau))

  /** Lemma 5 (vector–cell matching): some pivot i has the whole leaf box
    * inside the rectangle query region `RQR(q', p_i, τ) = [0, τ − q'[i]]`,
    * so every vector in the leaf matches `q`.
    */
  def vectorCellMatched(cell: Array[Int], off: Int, np: Int, w: Double, qm: Array[Double], tau: Double): Boolean = {
    var i = 0
    while (i < np) {
      val edge = tau - qm(i)
      if (edge >= 0 && (cell(off + i) + 1) * w <= edge) return true
      i += 1
    }
    false
  }

  /** Lemma 3 as integer ranges, on pivots `off until off + n`: in a grid of
    * `side` cells of width `w` per pivot, the cells it does not filter are
    * those with `lo(i) <= c_i <= hi(i)` on pivot `off + i`. `above` and
    * `below` are monotone in c, so stepping from a guess by division until
    * the same expressions flip finds the range edges exactly, in a step or
    * two. Returns whether every range is non-empty.
    *
    * Block takes the leaf ranges on the grid's |P| pivots (`off` 0) and
    * the code ranges of the filter pivots beyond them, whose "cells" are
    * the codes of width `extent / 2^16` (see [[InvertedIndex.filterCode]]).
    */
  def lemma3Range(qm: Array[Double], off: Int, n: Int, tau: Double, w: Double, side: Int,
                  lo: Array[Int], hi: Array[Int]): Boolean = {
    var nonEmpty = true
    var i = 0
    while (i < n) {
      val x = qm(off + i) - tau
      val y = qm(off + i) + tau
      // lo: the least c in [0, side] that is not below x
      var a = math.min(side.toDouble, math.max(0.0, math.ceil(x / w) - 1)).toInt
      while (a > 0 && !below(a - 1, w, x)) a -= 1
      while (a < side && below(a, w, x)) a += 1
      lo(i) = a
      // hi: one before the least c in [0, side] that is above y
      var b = math.min(side.toDouble, math.max(0.0, math.floor(y / w) + 1)).toInt
      while (b > 0 && above(b - 1, w, y)) b -= 1
      while (b < side && !above(b, w, y)) b += 1
      hi(i) = b - 1
      nonEmpty &&= lo(i) <= hi(i)
      i += 1
    }
    nonEmpty
  }
}
