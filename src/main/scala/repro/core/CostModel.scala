package repro.core

import java.util.Arrays

/** Cost analysis and optimal-m tuning (paper Section III-E, Eqs. 1–2).
  *
  * The expected verification cost of a query is the number of exact
  * distance computations, `E = Σ_{q∈C} N(SQR(q', τ))` (Eq. 1). Instead of
  * the exact `N`, the paper upper-bounds it per query vector by the
  * least-populated pivot-space dimension inside the τ-expanded range
  * (Eq. 2) — computed here from per-dimension empirical distributions of
  * the mapped repository vectors (sorted arrays; the "PDF integral" is a
  * rank difference).
  *
  * Tuning m trades candidate count (falls with m: finer cells hug the
  * query region) against inverted-index access overhead (grows with m:
  * more cells to probe). We minimize the summed estimate over a sampled
  * query workload via gradient descent on a continuous relaxation of m
  * and round up, as in the paper.
  */
final class CostModel(mappedSample: Array[Array[Double]], val numPivots: Int) extends Serializable {
  require(mappedSample.nonEmpty, "empty mapped sample")

  /** Sorted per-dimension values — the empirical distribution PDF_i. */
  private val sortedDims: Array[Array[Double]] = {
    val n = mappedSample.length
    Array.tabulate(numPivots) { i =>
      val col = new Array[Double](n)
      var j = 0
      while (j < n) { col(j) = mappedSample(j)(i); j += 1 }
      Arrays.sort(col)
      col
    }
  }

  private def countInRange(dim: Int, lo: Double, hi: Double): Int = {
    val a = sortedDims(dim)
    def lowerBound(x: Double): Int = {
      val i = Arrays.binarySearch(a, x)
      if (i >= 0) { var j = i; while (j > 0 && a(j - 1) >= x) j -= 1; j }
      else -i - 1
    }
    math.max(0, lowerBound(math.nextUp(hi)) - lowerBound(lo))
  }

  /** Eq. 2: upper bound on candidate vectors for one mapped query vector,
    * with the query region inflated by the half cell width at (continuous)
    * level m.
    */
  def nMax(qMapped: Array[Double], tau: Double, m: Double): Double = {
    val halfCell = HierarchicalGrid.DefaultExtent / (2.0 * math.pow(2.0, m))
    var best = Double.MaxValue
    var i = 0
    while (i < numPivots) {
      val c = countInRange(i, qMapped(i) - tau - halfCell, qMapped(i) + tau + halfCell)
      if (c < best) best = c
      i += 1
    }
    best
  }

  /** Number of distinct occupied cells of `vectors` at integer level l —
    * the exact sparse-grid width the paper's blocking descent walks.
    */
  private[core] def distinctCells(vectors: Array[Array[Double]], level: Int): Int = {
    val grid = new HierarchicalGrid(numPivots, level)
    vectors.foreach(grid.insert(_, 0))
    grid.numLeaves
  }

  /** Eq. 1 estimate for a workload of (mapped query column, τ) pairs at
    * level m, plus the index-access overhead the paper's tuning discussion
    * trades against it ("a trade-off between candidate number and inverted
    * index access"): the paper's blocking descent compares query cells
    * with target cells level by level, so the overhead is
    * `Σ_{l≤m} qcells(l) · tcells(l)`, weighted by the cost ratio of a
    * |P|-dimensional box test to a full-dimensional distance computation.
    */
  def expectedCost(
      workload: Seq[(Array[Array[Double]], Double)],
      m: Double,
      origDim: Int = 100,
  ): Double = {
    val cand = workload.iterator.map { case (qs, tau) =>
      qs.iterator.map(q => nMax(q, tau, m)).sum
    }.sum
    val qAll = workload.iterator.flatMap(_._1).toArray
    val pairCost = numPivots.toDouble / origDim
    def levelCost(l: Int): Double =
      distinctCells(qAll, l).toDouble * distinctCells(mappedSample, l) * pairCost
    var overhead = 0.0
    var l = 1
    while (l <= m.toInt) { overhead += levelCost(l); l += 1 }
    val frac = m - math.floor(m)
    if (frac > 0 && m.toInt + 1 <= 12) overhead += frac * levelCost(m.toInt + 1)
    cand + overhead
  }

  /** Optimal m: gradient descent on the continuous relaxation, rounded up
    * by ceiling (paper Section III-E). Returns (ceil(m*), m*).
    */
  def optimalM(
      workload: Seq[(Array[Array[Double]], Double)],
      mMax: Int = 10,
      origDim: Int = 100,
  ): (Int, Double) = {
    var m = mMax / 2.0
    var lr = 0.5
    val eps = 0.05
    var i = 0
    while (i < CostModel.DescentSteps) {
      val g = (expectedCost(workload, m + eps, origDim) -
        expectedCost(workload, m - eps, origDim)) / (2 * eps)
      // normalized step: only the gradient sign and a decaying rate matter here
      m = math.min(mMax.toDouble, math.max(1.0, m - lr * math.signum(g)))
      lr *= 0.93
      i += 1
    }
    // polish: discrete scan around the continuous optimum guards against
    // the flat regions the rank-difference estimate produces
    val best = (1 to mMax).minBy(k => expectedCost(workload, k.toDouble, origDim))
    val mCont = if (math.abs(best - m) > 1.5) best.toDouble else m
    (math.ceil(mCont).toInt, mCont)
  }
}

object CostModel {
  /** Gradient-descent steps of [[CostModel.optimalM]]. */
  private val DescentSteps = 60

  /** Build from an index-free sample: select pivots, map the sample. */
  def fromVectors(
      sample: IndexedSeq[Array[Double]],
      numPivots: Int,
  ): (CostModel, PivotSet) = {
    val pivots = PivotSelection.pcaPivots(sample, numPivots)
    val mapped = sample.iterator.map(pivots.map).toArray
    (new CostModel(mapped, numPivots), pivots)
  }
}
