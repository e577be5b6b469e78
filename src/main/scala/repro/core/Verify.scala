package repro.core

/** Verification (paper Algorithm 2).
  *
  * Walks the query vectors in id order. For each q it first credits the
  * columns of q's matching cells (Lemma 5), then tests the postings of
  * q's candidate cells, with pivot filtering / matching (Lemmas 1–2)
  * before any exact distance. Its per-search state is two arrays over
  * dense columns: `count`, the distinct query vectors matched so far (the
  * paper's match map; joinability counts distinct `q ∈ Q_M`), and `hitAt`,
  * which marks the columns q has matched. A column's segment is skipped
  *
  *   - once its count reaches `T·|Q|` (early termination: it is joinable);
  *   - once q has matched it;
  *   - by Lemma 7, once `count + (|Q| − q) < T·|Q|`. The paper's mismatch map
  *     is not kept: after the walk of q' ends, q' is a mismatch of every
  *     column it did not match, so |mismatch| at q is `q − count`.
  *
  * The candidate pairs are walked over the cells' column segments (DaaT:
  * each column is a "document"), so both terminations apply as early as
  * possible.
  */
object Verify {

  /** Absolute joinability threshold: smallest match count c with c/|Q| ≥ T. */
  def absThreshold(tFrac: Double, qSize: Int): Int =
    math.max(1, math.ceil(tFrac * qSize - 1e-9).toInt)

  /** The largest double `t` with `sqrt(t) <= tau` (`tau >= 0`). Since
    * `sqrt` is correctly rounded and monotone, a sum of squares `s` has
    * `s <= t` exactly when `math.sqrt(s) <= tau`: comparing squared
    * distances with `t` decides `d <= τ` as `VectorOps.euclidean` would.
    */
  def sqThreshold(tau: Double): Double =
    if (!(tau >= 0)) Double.NegativeInfinity
    else if (tau == Double.PositiveInfinity) tau
    else {
      var t = tau * tau
      while (math.sqrt(t) > tau) t = math.nextDown(t)
      while (math.sqrt(math.nextUp(t)) <= tau) t = math.nextUp(t)
      t
    }

  final class Stats {
    var distanceComputations: Long = 0L
  }

  /** Whether `q` is within `t` (a [[sqThreshold]]) of posting `p`: the
    * squared distance summed in coordinate order, stopping once it passes
    * `t`, since the running sum only grows.
    */
  private def within(q: Array[Double], vectors: Array[Double], p: Int, t: Double): Boolean = {
    val dim = q.length
    val off = p * dim
    var s = 0.0
    var i = 0
    while (i < dim && s <= t) {
      val d = q(i) - vectors(off + i)
      s += d * d
      i += 1
    }
    s <= t
  }

  /** PEXESO verification (inverted-index + DaaT + Lemmas 1, 2, 7), or with
    * `VerifyMode.PexesoH` the same walk with no Lemma 1, 2 or 7 (paper
    * Section VI-A): an exact distance for every posting reached.
    */
  def pexeso(
      block: BlockResult,
      index: InvertedIndex,
      queryMapped: Array[Array[Double]],
      queryOriginal: Array[Array[Double]],
      tau: Double,
      tAbs: Int,
      mode: VerifyMode = VerifyMode.Pexeso,
  ): (Set[Int], Stats) = {
    val stats = new Stats
    val numQ = queryMapped.length
    val numCols = index.numColumns
    // count(col): the distinct query vectors that match col so far;
    // hitAt(col) = q + 1 once q matches col
    val count = new Array[Int](numCols)
    val hitAt = new Array[Int](numCols)
    // pivots tested per posting, and the count Lemma 7 asks a column to be
    // able to reach; a count is never below 0, so PEXESO-H's 0 never fires
    val (np, reachable) = if (mode == VerifyMode.PexesoH) (0, 0) else (index.numPivots, tAbs)
    val mapped = index.mapped
    val vectors = index.vectors
    val t = sqThreshold(tau)
    val matching = block.matchingPairs
    val pairs = block.candidatePairs

    // DaaT verification as in the paper (Fig. 4), one query vector at a
    // time in id order, over the runs Block emitted for it; each cell's
    // postings are sorted by column, so one pass over a cell processes its
    // columns ("documents") consecutively.
    var q = 0
    while (q < numQ) {
      val stamp = q + 1
      // Lemma 5: every vector of a matching cell matches q, so q matches
      // each column in the cell, once however many cells hold it
      var mi = matching.runStart(q)
      while (mi < matching.runEnd(q)) {
        val cell = matching.cell(mi)
        var s = index.cellSeg(cell)
        while (s < index.cellSeg(cell + 1)) {
          val col = index.segCol(s)
          if (hitAt(col) != stamp) { hitAt(col) = stamp; count(col) += 1 }
          s += 1
        }
        mi += 1
      }
      // Lemma 7: a column q has not matched counts only q' < q, and q and
      // the query vectors after it add at most numQ − q
      val left = numQ - q
      val qm = queryMapped(q)
      val qo = queryOriginal(q)
      var ci = pairs.runStart(q)
      while (ci < pairs.runEnd(q)) {
        val cell = pairs.cell(ci)
        var s = index.cellSeg(cell)
        while (s < index.cellSeg(cell + 1)) {
          val col = index.segCol(s)
          val skip = count(col) >= tAbs || hitAt(col) == stamp || count(col) + left < reachable
          if (!skip) {
            var found = false
            var p = index.segStart(s)
            while (p < index.segStart(s + 1) && !found) {
              // Lemma 1 (filtered) takes precedence over Lemma 2 (matched)
              val off = p * np
              var filtered = false
              var matched = false
              var j = 0
              while (j < np && !filtered) {
                val x = mapped(off + j)
                if (math.abs(qm(j) - x) > tau) filtered = true
                else if (qm(j) + x <= tau) matched = true
                j += 1
              }
              if (!filtered) {
                if (matched) found = true
                else {
                  stats.distanceComputations += 1
                  if (within(qo, vectors, p, t)) found = true
                }
              }
              p += 1
            }
            if (found) { hitAt(col) = stamp; count(col) += 1 }
          }
          s += 1
        }
        ci += 1
      }
      q += 1
    }

    val joinable = Set.newBuilder[Int]
    var c = 0
    while (c < numCols) { if (count(c) >= tAbs) joinable += index.colIds(c); c += 1 }
    (joinable.result(), stats)
  }
}
