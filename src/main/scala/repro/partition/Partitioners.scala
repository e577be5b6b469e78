package repro.partition

import repro.core.ColumnVectors
import repro.embed.VectorOps

/** Baseline partitioners compared against JSD clustering in the paper's
  * partitioning experiment (Section VI-E, Fig. 9): random partitioning and
  * "average k-means" (each column reduced to the mean of its vectors, then
  * Euclidean k-means over those means).
  */
object Partitioners {

  private val Seed = 17L

  /** Deterministic pseudo-random assignment (hash of colId mod k). */
  def random(columns: IndexedSeq[ColumnVectors], k: Int): Array[Int] =
    columns.map { c =>
      val h = repro.embed.HashingEmbedder.splitmix64(c.colId.toLong ^ Seed)
      ((h % k + k) % k).toInt
    }.toArray

  /** k-means over per-column average vectors. */
  def avgKMeans(columns: IndexedSeq[ColumnVectors], k: Int, iterations: Int = 5): Array[Int] = {
    require(k >= 1, "need k >= 1")
    if (k == 1) return Array.fill(columns.length)(0)
    val means = columns.map(c => VectorOps.mean(c.vectors)).toArray
    val kk = math.min(k, columns.length)
    val step = math.max(1, columns.length / kk)
    var centers = Array.tabulate(kk)(i => means(math.min(means.length - 1, i * step)).clone())
    val assign = new Array[Int](columns.length)
    var it = 0
    while (it < iterations) {
      var i = 0
      while (i < means.length) {
        var best = 0; var bestD = Double.MaxValue
        var c = 0
        while (c < kk) {
          val d = VectorOps.euclideanSq(means(i), centers(c))
          if (d < bestD) { bestD = d; best = c }
          c += 1
        }
        assign(i) = best
        i += 1
      }
      val sums = Array.fill(kk)(new Array[Double](means(0).length))
      val cnts = new Array[Int](kk)
      i = 0
      while (i < means.length) {
        VectorOps.addInPlace(sums(assign(i)), means(i))
        cnts(assign(i)) += 1
        i += 1
      }
      centers = Array.tabulate(kk) { c =>
        if (cnts(c) == 0) centers(c) else sums(c).map(_ / cnts(c))
      }
      it += 1
    }
    assign
  }

  /** Group columns by a partition assignment. */
  def split(columns: IndexedSeq[ColumnVectors], assign: Array[Int]): Map[Int, IndexedSeq[ColumnVectors]] =
    columns.indices.groupBy(assign(_)).map { case (p, idxs) => p -> idxs.map(columns(_)) }
}
