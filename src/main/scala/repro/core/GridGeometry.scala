package repro.core

/** The one quantizer of pivot distances, and Lemmas 3 and 5 (paper
  * Section III-B) on it: the bounds that every pivot test in search
  * compares codes with.
  *
  * Each pivot axis `[0, extent]` is cut into `2^CodeBits` codes of width
  * `w`, and a distance's [[code]] brackets it as computed doubles. A leaf
  * coordinate at level m is the code's top m bits (see
  * [[HierarchicalGrid]]), so leaf c spans the codes `c << s` to
  * `((c + 1) << s) − 1` with `s = CodeBits − m`, and its box
  * `[(c << s)·w, ((c + 1) << s)·w]` brackets its vectors. `2^s·w` is
  * exactly `extent / 2^m`, so these are the doubles `c·extent/2^m` too.
  * Lemmas 3 and 5 are Lemmas 1 and 2 on a box's extremes, so "filter"
  * fires only when no vector in the box can match q, "match" only when
  * every one must.
  *
  * Lemmas 4 and 6, the cell–cell forms, add nothing: since inner cells
  * nest exactly on leaves, a level-l cell that Lemma 4 filters (Lemma 6
  * matches) for a query cell holds only leaves that Lemma 3 filters
  * (Lemma 5 matches) for each query vector inside that cell's box.
  */
object GridGeometry {

  /** Bits of a code, which fits a `Char`, and the most levels of a grid. */
  val CodeBits: Int = 16
  val Codes: Int = 1 << CodeBits

  /** Width of a code on axes `[0, extent]`. */
  def codeWidth(extent: Double): Double = extent / Codes

  /** The code of a distance `d` in `[0, extent]`, for codes of width `w`:
    * the greatest c in `[0, Codes)` with `c·w <= d`, so that
    * `c·w <= d <= (c+1)·w` holds as computed doubles. `d / w` is only a
    * first guess: `c·w` rounds.
    */
  def code(d: Double, w: Double): Int = {
    var c = math.min(Codes - 1, math.max(0, (d / w).toInt))
    while (c > 0 && c * w > d) c -= 1
    while (c < Codes - 1 && (c + 1) * w <= d) c += 1
    c
  }

  // Lemma 1's `|q' − x'| > τ` on the nearest edge of code c's box
  private def above(c: Int, w: Double, q: Double, tau: Double): Boolean = c * w - q > tau
  private def below(c: Int, w: Double, q: Double, tau: Double): Boolean = q - (c + 1) * w > tau

  /** Lemmas 3 and 5 (vector–cell filtering and matching) as code bounds of
    * one query vector on the first `n` pivots, with codes of width `w`. On
    * pivot i:
    *
    *   - Lemma 3 keeps the codes `lo(i)` to `hi(i)`, those whose box
    *     `[c·w, (c+1)·w]` passes Lemma 1's own expression, `c·w − q' > τ`
    *     above q' and `q' − (c+1)·w > τ` below. Rounding is monotone, so a
    *     code holding an x' with `|q' − x'| <= τ` as computed doubles is
    *     kept (`c·w > q' + τ` would round `q' + τ` first and can drop it).
    *   - Lemma 5 matches the codes below `lim(i)`, the greatest k in
    *     `[0, Codes]` with `k·w <= τ − q'` as computed doubles (−1 when
    *     τ < q'): `k·w` rounds monotonically in k, so these are the codes
    *     whose box lies in `RQR(q', p_i, τ) = [0, τ − q']`.
    *
    * Each test is monotone in c, so stepping from a division guess until
    * it flips finds each bound exactly. Returns whether every Lemma 3 range
    * is non-empty.
    *
    * A leaf is a run of `2^s` codes, `s = CodeBits − m`, so Block keeps the
    * leaves `lo(i) >> s` to `hi(i) >> s` and matches leaf c when
    * `c < lim(i) >> s` (arithmetic shifts, so −1 stays empty). A posting is
    * a one-code cell, so Verify's Lemmas 1 and 2 are these same tests on
    * its code: every pivot test of a search reads its bounds from here, and
    * a slack for the rounding of computed distances would go here alone.
    */
  def bounds(qm: Array[Double], n: Int, tau: Double, w: Double,
             lo: Array[Int], hi: Array[Int], lim: Array[Int]): Boolean = {
    var nonEmpty = true
    var i = 0
    while (i < n) {
      val q = qm(i)
      // lo: the least c in [0, Codes] that is not below q'
      var a = math.min(Codes.toDouble, math.max(0.0, math.ceil((q - tau) / w) - 1)).toInt
      while (a > 0 && !below(a - 1, w, q, tau)) a -= 1
      while (a < Codes && below(a, w, q, tau)) a += 1
      lo(i) = a
      // hi: one before the least c in [0, Codes] that is above q'
      var b = math.min(Codes.toDouble, math.max(0.0, math.floor((q + tau) / w) + 1)).toInt
      while (b > 0 && above(b - 1, w, q, tau)) b -= 1
      while (b < Codes && !above(b, w, q, tau)) b += 1
      hi(i) = b - 1
      nonEmpty &&= lo(i) <= hi(i)
      // lim: 0·w = 0 passes whenever τ − q' is not negative
      val edge = tau - q
      var k = if (edge < 0) -1 else math.min(Codes.toDouble, math.floor(edge / w)).toInt
      while (k > 0 && k * w > edge) k -= 1
      while (k < Codes && (k + 1) * w <= edge) k += 1
      lim(i) = k
      i += 1
    }
    nonEmpty
  }

}
