package repro.partition

import repro.core.ColumnVectors

/** k-means-style clustering of columns by distribution similarity
  * (paper Section IV, steps 1–5):
  *
  *  1. summarize every column as a probability histogram;
  *  2. pick k columns as initial centers (deterministically spaced here
  *     instead of random, for reproducibility);
  *  3. assign each column to the center with minimum JSD;
  *  4. update each center to the mean histogram of its cluster;
  *  5. repeat for `t` iterations.
  *
  * Complexity O(|S| · k · t), as analyzed in the paper.
  */
object JsdClustering {

  /** Reference points per histogram, and distance bins per reference point. */
  private val Refs = 4
  private val Bins = 16

  /** @return cluster assignment: column index (position in `columns`) → [0, k) */
  def cluster(
      columns: IndexedSeq[ColumnVectors],
      k: Int,
      iterations: Int = 5,
  ): Array[Int] = {
    require(k >= 1 && columns.nonEmpty, "need k >= 1 and a non-empty lake")
    if (k == 1) return Array.fill(columns.length)(0)

    val refPoints = ColumnHistogram.referencePoints(columns, Refs)
    val sigs = columns.map(c => ColumnHistogram.signature(c, refPoints, Bins)).toArray

    val kk = math.min(k, columns.length)
    val step = math.max(1, columns.length / kk)
    var centers = Array.tabulate(kk)(i => sigs(math.min(columns.length - 1, i * step)).clone())

    val assign = new Array[Int](columns.length)
    var it = 0
    while (it < iterations) {
      var i = 0
      while (i < sigs.length) {
        var best = 0; var bestD = Double.MaxValue
        var c = 0
        while (c < kk) {
          val d = Jsd.jsd(sigs(i), centers(c))
          if (d < bestD) { bestD = d; best = c }
          c += 1
        }
        assign(i) = best
        i += 1
      }
      // mean histogram per cluster (renormalized)
      val sums = Array.fill(kk)(new Array[Double](sigs(0).length))
      val cnts = new Array[Int](kk)
      i = 0
      while (i < sigs.length) {
        val c = assign(i)
        var j = 0
        while (j < sigs(i).length) { sums(c)(j) += sigs(i)(j); j += 1 }
        cnts(c) += 1
        i += 1
      }
      centers = Array.tabulate(kk) { c =>
        if (cnts(c) == 0) centers(c)
        else {
          val m = sums(c).map(_ / cnts(c))
          val tot = m.sum
          m.map(_ / tot)
        }
      }
      it += 1
    }
    assign
  }
}
