package repro.core

/** Lemmas 3 and 5 (paper Section III-B) on the leaf cell
  * `cell(off until off + |P|)` of width `w`, whose box in dimension i is
  * `[c_i·w, (c_i+1)·w]`.
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
  def vectorCellFiltered(cell: Array[Int], off: Int, w: Double, qm: Array[Double], tau: Double): Boolean =
    qm.indices.exists(i => above(cell(off + i), w, qm(i) + tau) || below(cell(off + i), w, qm(i) - tau))

  /** Lemma 5 (vector–cell matching): some pivot i has the whole leaf box
    * inside the rectangle query region `RQR(q', p_i, τ) = [0, τ − q'[i]]`,
    * so every vector in the leaf matches `q`.
    */
  def vectorCellMatched(cell: Array[Int], off: Int, w: Double, qm: Array[Double], tau: Double): Boolean = {
    var i = 0
    while (i < qm.length) {
      val edge = tau - qm(i)
      if (edge >= 0 && (cell(off + i) + 1) * w <= edge) return true
      i += 1
    }
    false
  }

  /** Lemma 3 as integer ranges: in a grid of `side` leaves per dimension,
    * the leaves it does not filter are those with `lo(i) <= c_i <= hi(i)`
    * for every i. `above` and `below` are monotone in c, so binary search
    * with the same expressions finds the range edges exactly. Returns
    * whether every range is non-empty.
    */
  def lemma3Range(qm: Array[Double], tau: Double, w: Double, side: Int,
                  lo: Array[Int], hi: Array[Int]): Boolean = {
    var nonEmpty = true
    var i = 0
    while (i < qm.length) {
      val x = qm(i) - tau
      val y = qm(i) + tau
      var a = 0
      var b = side
      while (a < b) { val c = (a + b) >>> 1; if (below(c, w, x)) a = c + 1 else b = c }
      lo(i) = a
      a = 0
      b = side
      while (a < b) { val c = (a + b) >>> 1; if (above(c, w, y)) b = c else a = c + 1 }
      hi(i) = a - 1
      nonEmpty &&= lo(i) <= hi(i)
      i += 1
    }
    nonEmpty
  }
}
