package repro.core

/** The one quantizer of pivot distances, and Lemmas 3 and 5 (paper
  * Section III-B) on it.
  *
  * Each pivot axis `[0, extent]` is cut into `2^CodeBits` codes of width
  * `w`, and a distance's [[code]] brackets it as computed doubles. A leaf
  * coordinate at level m is the code's top m bits (see
  * [[HierarchicalGrid]]), so leaf c spans the codes `c << s` to
  * `((c + 1) << s) − 1` with `s = CodeBits − m`, and its box
  * `[(c << s)·w, ((c + 1) << s)·w]` brackets its vectors. `2^s·w` is
  * exactly `extent / 2^m`, so these are the doubles `c·extent/2^m` too.
  *
  * The tests are conservative: "filter" only fires when no contained
  * vector can match the query (soundness of pruning), "match" only fires
  * when every contained vector must match (soundness of counting) — both
  * follow from Lemmas 1–2 applied to box extremes.
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

  /** Lemma 5 (vector–cell matching) on the leaf `cell(off until off + np)`
    * of `2^shift` codes of width `w` per pivot: some pivot i has the whole
    * leaf box inside the rectangle query region `RQR(q', p_i, τ) =
    * [0, τ − q'[i]]`, so every vector in the leaf matches `q`.
    */
  def vectorCellMatched(cell: Array[Int], off: Int, np: Int, shift: Int, w: Double,
                        qm: Array[Double], tau: Double): Boolean = {
    var i = 0
    while (i < np) {
      val edge = tau - qm(i)
      if (edge >= 0 && ((cell(off + i) + 1) << shift) * w <= edge) return true
      i += 1
    }
    false
  }

  /** Lemma 3 (vector–cell filtering) as code ranges, on the first `n`
    * pivots with codes of width `w`: the codes whose box `[c·w, (c+1)·w]`
    * meets `[q' − τ, q' + τ]` on pivot i are those with
    * `lo(i) <= c <= hi(i)`. The box is tested with Lemma 1's own
    * expression, `c·w − q' > τ` above q' and `q' − (c+1)·w > τ` below:
    * rounding is monotone, so a code holding an x' with `|q' − x'| <= τ`
    * as computed doubles is never dropped (testing `c·w > q' + τ` instead
    * rounds `q' + τ` first and can drop it). Both are monotone in c, so
    * stepping from a guess by division until they flip finds the range
    * edges exactly, in a step or two. Returns whether every range is
    * non-empty.
    *
    * A leaf's box is the union of its codes' boxes, so Lemma 3 keeps the
    * leaves at level m with coordinates `lo(i) >> s` to `hi(i) >> s`: an
    * arithmetic shift, so that an empty range (`hi(i) = −1`) stays empty.
    */
  def lemma3Range(qm: Array[Double], n: Int, tau: Double, w: Double, lo: Array[Int], hi: Array[Int]): Boolean = {
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
      i += 1
    }
    nonEmpty
  }
}
