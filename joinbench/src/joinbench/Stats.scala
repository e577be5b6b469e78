package joinbench

/** Order statistics for the benchmark's timed samples. */
object Stats {

  /** Percentile `p` (0..100) of `xs` by linear interpolation between
    * closest ranks (the default of numpy and of Python's
    * `statistics.quantiles(method="inclusive")`).
    */
  def percentile(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p >= 0 && p <= 100, s"percentile out of range: $p")
    val s = xs.clone()
    java.util.Arrays.sort(s)
    val pos = p / 100.0 * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(s.length - 1, lo + 1)
    s(lo) + (pos - lo) * (s(hi) - s(lo))
  }

  def median(xs: Array[Double]): Double = percentile(xs, 50)

  /** Samples of `n` that rank above the p-th percentile. */
  def beyond(n: Int, p: Double): Int =
    n - math.ceil(p / 100.0 * n - 1e-9).toInt

  /** Whether the p-th percentile of `n` samples leaves `minBeyond` above it. */
  def hasTail(n: Int, p: Double, minBeyond: Int = 10): Boolean =
    beyond(n, p) >= minBeyond

  /** Fewest samples for which the p-th percentile leaves `minBeyond` above it. */
  def samplesFor(p: Double, minBeyond: Int = 10): Int =
    Iterator.from(1).find(hasTail(_, p, minBeyond)).get

  /** The highest of `candidates` that leaves `minBeyond` samples above it. */
  def highestWithTail(n: Int, candidates: Seq[Double], minBeyond: Int = 10): Option[Double] =
    candidates.sorted.reverse.find(hasTail(n, _, minBeyond))
}
