package repro.core

/** Verification (paper Algorithm 2).
  *
  * Consumes the blocking output and the inverted index, maintains the
  * match map (distinct matched query vectors per column — a set, since
  * joinability counts distinct `q ∈ Q_M`) and prunes with:
  *
  *   - per-vector pivot filtering / matching (Lemmas 1–2) before any exact
  *     distance computation;
  *   - early termination: a column whose match count reaches `T` is
  *     joinable, the rest of its candidates are skipped;
  *   - Lemma 7: a column that can no longer reach `T` even if all its
  *     remaining candidate query vectors matched is abandoned.
  *
  * The candidate pairs are walked per query vector over the cells' column
  * segments (DaaT: each column is a "document") so both terminations apply
  * as early as possible. All per-search state lives in primitive arrays
  * indexed by dense column.
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

  /** Per-search match state: one bit per (column, q) and a distinct match
    * count per column.
    */
  private final class Matches(numCols: Int, numQ: Int, tAbs: Int) {
    private val words = (numQ + 63) >>> 6
    private val bits = new Array[Long](numCols * words)
    val count = new Array[Int](numCols)

    def has(col: Int, q: Int): Boolean =
      (bits(col * words + (q >>> 6)) & (1L << q)) != 0

    /** Record that q matches col. */
    def add(col: Int, q: Int): Unit = {
      val w = col * words + (q >>> 6)
      val bit = 1L << q
      if ((bits(w) & bit) == 0) { bits(w) |= bit; count(col) += 1 }
    }

    def joinable(col: Int): Boolean = count(col) >= tAbs

    /** Ids of the joinable columns. */
    def result(index: InvertedIndex): Set[Int] = {
      val b = Set.newBuilder[Int]
      var c = 0
      while (c < numCols) { if (joinable(c)) b += index.colIds(c); c += 1 }
      b.result()
    }
  }

  /** Matching pairs: every vector in the cell matches q, so q is matched
    * for every column present in the cell.
    */
  private def addMatching(block: BlockResult, index: InvertedIndex, m: Matches): Unit = {
    val pairs = block.matchingPairs
    var i = 0
    while (i < pairs.size) {
      val q = pairs.q(i)
      val cell = pairs.cell(i)
      var s = index.cellSeg(cell)
      while (s < index.cellSeg(cell + 1)) { m.add(index.segCol(s), q); s += 1 }
      i += 1
    }
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
    val m = new Matches(numCols, numQ, tAbs)
    addMatching(block, index, m)

    // DaaT verification as in the paper (Fig. 4): candidate pairs are
    // walked per query vector, in q order over the run Block emitted for
    // each; each cell's postings are sorted by column, so one pass over a
    // cell processes its columns ("documents") consecutively. Mismatch
    // counts feed Lemma 7: once |Q| − mismatches cannot reach T, the
    // column's remaining postings are skipped.
    // `seenAt` / `hitAt` hold q + 1 for the columns q touched / matched.
    val mismatch = new Array[Int](numCols)
    val seenAt = new Array[Int](numCols)
    val hitAt = new Array[Int](numCols)
    val seen = new Array[Int](numCols)
    // pivots tested per posting, and the count Lemma 7 asks a column to be
    // able to reach; numQ − mismatches is never below 0, so PEXESO-H's 0 never fires
    val (np, reachable) = if (mode == VerifyMode.PexesoH) (0, 0) else (index.numPivots, tAbs)
    val mapped = index.mapped
    val vectors = index.vectors
    val t = sqThreshold(tau)
    val pairs = block.candidatePairs
    var q = 0
    while (q < numQ) {
      val stamp = q + 1
      val qm = queryMapped(q)
      val qo = queryOriginal(q)
      var numSeen = 0
      var ci = pairs.runStart(q)
      while (ci < pairs.runEnd(q)) {
        val cell = pairs.cell(ci)
        var s = index.cellSeg(cell)
        while (s < index.cellSeg(cell + 1)) {
          val col = index.segCol(s)
          val skip = m.joinable(col) || hitAt(col) == stamp || m.has(col, q) ||
            numQ - mismatch(col) < reachable // Lemma 7
          if (!skip) {
            if (seenAt(col) != stamp) { seenAt(col) = stamp; seen(numSeen) = col; numSeen += 1 }
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
            if (found) { hitAt(col) = stamp; m.count(col) += 1 }
          }
          s += 1
        }
        ci += 1
      }
      // q matched nothing of a seen column in any of its cells => mismatch
      var k = 0
      while (k < numSeen) {
        val col = seen(k)
        if (hitAt(col) != stamp) mismatch(col) += 1
        k += 1
      }
      q += 1
    }

    (m.result(index), stats)
  }
}
