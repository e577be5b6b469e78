package repro.core

import repro.embed.VectorOps

/** PCA-based pivot selection (paper Section III-D, following Mao et al. [20]).
  *
  * Good pivots are outliers that scatter the mapped vectors. The PCA-based
  * method runs in O(|S_V|): compute the top principal components of (a
  * sample of) the vector collection with power iteration, then pick, for
  * each component, the vector with the extreme projection along it —
  * those are outliers in the directions of maximum variance.
  *
  * No external linear-algebra dependency: the sample is centred and its
  * (unscaled) dim×dim covariance `Σ (x-μ)(x-μ)ᵀ` formed once, in
  * O(|S_V|·dim²); power iteration then costs O(dim²) per step, however
  * many components are wanted.
  *
  * The selection is a prefix family: the first k pivots of
  * `pcaPivots(s, k')` for `k' > k` are `pcaPivots(s, k)`, since components
  * and picks are made in order and none depends on k.
  */
object PivotSelection {

  /** Power-iteration steps per principal component. */
  private val Iterations = 20
  /** Seed of the deterministic start vectors. */
  private val Seed = 7L

  /** Select `k` pivots from `vectors` (or a sample thereof), each a
    * different member of the pool; fewer only if the pool is smaller.
    *
    * @param vectors candidate pool (pass a uniform sample for big lakes)
    * @param k       number of pivots; beyond the original dim the picks go
    *                on farthest-first
    */
  def pcaPivots(vectors: IndexedSeq[Array[Double]], k: Int): PivotSet = {
    require(vectors.nonEmpty, "empty vector pool")
    require(k >= 1, "need k >= 1")
    val dim = vectors.head.length
    val n = vectors.length
    val mu = VectorOps.mean(vectors)

    // centred sample, row-major: row r is x_r - mu
    val x = new Array[Double](n * dim)
    var r = 0
    while (r < n) {
      val v = vectors(r)
      var i = 0
      while (i < dim) { x(r * dim + i) = v(i) - mu(i); i += 1 }
      r += 1
    }
    // (x_r - mu) · v
    def proj(r: Int, v: Array[Double]): Double = {
      var s = 0.0; var i = 0
      while (i < dim) { s += x(r * dim + i) * v(i); i += 1 }
      s
    }

    // cov = Σ_r (x_r - mu)(x_r - mu)ᵀ, upper triangle summed, then mirrored
    val cov = new Array[Double](dim * dim)
    r = 0
    while (r < n) {
      val off = r * dim
      var i = 0
      while (i < dim) {
        val xi = x(off + i)
        var j = i
        while (j < dim) { cov(i * dim + j) += xi * x(off + j); j += 1 }
        i += 1
      }
      r += 1
    }
    for (i <- 0 until dim; j <- 0 until i) cov(i * dim + j) = cov(j * dim + i)

    val comps = new scala.collection.mutable.ArrayBuffer[Array[Double]]
    var rngState = Seed
    while (comps.length < math.min(k, dim)) {
      // deterministic pseudo-random start vector
      var v = Array.fill(dim) {
        rngState = repro.embed.HashingEmbedder.splitmix64(rngState)
        (rngState.toDouble / Long.MaxValue)
      }
      v = VectorOps.normalize(v)
      var it = 0
      while (it < Iterations) {
        // w = cov · v
        val w = new Array[Double](dim)
        var i = 0
        while (i < dim) {
          var s = 0.0; var j = 0
          while (j < dim) { s += cov(i * dim + j) * v(j); j += 1 }
          w(i) = s
          i += 1
        }
        // deflate against previously found components
        comps.foreach { u =>
          val d = VectorOps.dot(w, u)
          var i = 0
          while (i < dim) { w(i) -= d * u(i); i += 1 }
        }
        val norm = VectorOps.norm(w)
        if (norm > 1e-12) v = w.map(_ / norm)
        it += 1
      }
      comps += v
    }

    // One pivot per component: the vector with the maximum |projection|
    // (an outlier along that direction), not taken before.
    val taken = new Array[Boolean](n)
    val chosen = new Array[Int](math.min(k, n))
    var numChosen = 0
    def take(i: Int): Unit = { taken(i) = true; chosen(numChosen) = i; numChosen += 1 }
    comps.foreach { u =>
      var best = -1; var bestAbs = -1.0
      var i = 0
      while (i < n) {
        if (!taken(i)) {
          val p = math.abs(proj(i, u))
          if (p > bestAbs) { bestAbs = p; best = i }
        }
        i += 1
      }
      if (best >= 0) take(best)
    }
    // Top up farthest-first (k > dim): the vector farthest from every
    // pivot so far; minD(i) is vector i's distance to the nearest one.
    if (numChosen < k && numChosen < n) {
      val minD = Array.fill(n)(Double.MaxValue)
      def near(j: Int): Unit = {
        var i = 0
        while (i < n) {
          if (!taken(i)) minD(i) = math.min(minD(i), VectorOps.euclidean(vectors(i), vectors(j)))
          i += 1
        }
      }
      (0 until numChosen).foreach(c => near(chosen(c)))
      while (numChosen < k && numChosen < n) {
        var best = -1; var bestD = -1.0
        var i = 0
        while (i < n) {
          if (!taken(i) && minD(i) > bestD) { bestD = minD(i); best = i }
          i += 1
        }
        take(best)
        near(best)
      }
    }
    PivotSet(chosen.take(numChosen).map(vectors(_).clone()))
  }

  /** Uniform deterministic sample of up to `maxSample` vectors. */
  def sample(vectors: IndexedSeq[Array[Double]], maxSample: Int): IndexedSeq[Array[Double]] =
    if (vectors.length <= maxSample) vectors
    else {
      val step = vectors.length.toDouble / maxSample
      (0 until maxSample).map(i => vectors((i * step).toInt))
    }
}
