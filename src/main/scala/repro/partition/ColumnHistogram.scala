package repro.partition

import repro.core.ColumnVectors
import repro.embed.VectorOps

/** Distribution signature of a column (paper Section IV, step 1 of the
  * JSD clustering): "we summarize a column of vectors with a probability
  * distribution histogram ... the statistics of the probability of points
  * in a space region".
  *
  * In 50–300 dimensions an axis-aligned grid is vacuous, so the regions
  * are defined by distances to `r` shared reference vectors (sampled once
  * per lake): for each reference, a histogram of the column's distances to
  * it over [0, 2] with `bins` buckets. The concatenated, normalized
  * histogram is the probability distribution JSD compares. Columns with
  * similar spatial distributions — the paper's criterion — get similar
  * signatures.
  */
object ColumnHistogram {

  /** Pick `r` deterministic reference vectors from the lake. */
  def referencePoints(columns: Seq[ColumnVectors], r: Int): Array[Array[Double]] = {
    val all = columns.iterator.flatMap(_.vectors).toIndexedSeq
    require(all.nonEmpty, "empty lake")
    val step = math.max(1, all.length / r)
    (0 until r).map(i => all(math.min(all.length - 1, i * step)).clone()).toArray
  }

  /** Normalized (sums to 1) concatenated histogram with Laplace smoothing
    * so KL divergence is finite everywhere.
    */
  def signature(col: ColumnVectors, refs: Array[Array[Double]], bins: Int): Array[Double] = {
    val h = new Array[Double](refs.length * bins)
    val w = VectorOps.MaxUnitDistance / bins
    var ri = 0
    while (ri < refs.length) {
      val ref = refs(ri)
      col.vectors.foreach { v =>
        val d = VectorOps.euclidean(v, ref)
        val b = math.min(bins - 1, math.max(0, (d / w).toInt))
        h(ri * bins + b) += 1.0
      }
      ri += 1
    }
    // Laplace smoothing + normalization
    val total = h.sum + h.length * 1e-3
    var i = 0
    while (i < h.length) { h(i) = (h(i) + 1e-3) / total; i += 1 }
    h
  }
}
