package joinbench

import repro.baselines.NaiveSearch
import repro.core.ColumnVectors
import repro.lake.LakeGen
import repro.lake.LakeGen.LakeSpec

/** One benchmark workload: a mini lake, index parameters and, for the
  * out-of-core workload, the number of JSD partitions it is spilled in.
  * Every workload runs closed loop with one client on one thread, at
  * τ = 6% of the maximum distance 2 and T = 60%, in `VerifyMode.Pexeso`.
  */
final case class Workload(
    name: String,
    lakeSpec: Long => LakeSpec,
    numPivots: Int,
    levels: Int,
    partitions: Int,
) {
  def outOfCore: Boolean = partitions > 0
}

object Workload {
  val Tau: Double = 0.06 * 2.0
  val TFrac: Double = 0.6
  /** Queries per request: the Table VII protocol. */
  val NumQueries: Int = 10
  /** Requests cycle over this many disjoint groups of [[NumQueries]]
    * queries, so the per-query percentiles and throughput of a run average
    * over 30 query columns of the lake instead of 10.
    */
  val QueryGroups: Int = 3

  /** The workloads of BENCHMARK.json, then `open-verify`: OPEN-mini at
    * this repository's tuned m=2, where verification is ~98% of search. It
    * is left out of BENCHMARK.json only to fit the run budget.
    */
  val all: Seq[Workload] = Seq(
    Workload("open-deep", s => LakeGen.openMiniSpec(seed = 101L + s), numPivots = 5, levels = 6, partitions = 0),
    Workload("lwdc-ooc", s => LakeGen.lwdcMiniSpec(seed = 303L + s), numPivots = 3, levels = 4, partitions = 10),
    Workload("open-verify", s => LakeGen.openMiniSpec(seed = 101L + s), numPivots = 5, levels = 2, partitions = 0),
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))
}

/** The generated inputs of one run: the embedded repository, the query
  * columns (removed from the lake, as the paper removes its query tables)
  * and the exact answer of each query from `NaiveSearch`.
  */
final class Inputs(
    val workload: Workload,
    val seed: Long,
    val repo: IndexedSeq[ColumnVectors],
    val queries: IndexedSeq[Array[Array[Double]]],
) {
  val dim: Int = repo.head.vectors.head.length
  /** Query indices of request group `g`. */
  def group(g: Int): IndexedSeq[Int] =
    (g * Workload.NumQueries) until ((g + 1) * Workload.NumQueries)
  val numVectors: Long = repo.iterator.map(_.size.toLong).sum
  /** Bytes of raw vector data: vectors × dim × 8. */
  def vectorBytes: Double = numVectors.toDouble * dim * 8

  /** SHA-256 over every repository and query vector, in order. */
  def hash: String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8 * dim)
    def add(v: Array[Double]): Unit = { buf.clear(); v.foreach(buf.putDouble); md.update(buf.array) }
    repo.foreach { c => md.update(BigInt(c.colId).toByteArray); c.vectors.foreach(add) }
    queries.foreach(_.foreach(add))
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  lazy val oracle: IndexedSeq[Set[Int]] =
    queries.map(q => NaiveSearch.search(repo, q, Workload.Tau, Workload.TFrac).joinable)
}

object Inputs {
  def generate(w: Workload, seed: Long): Inputs = {
    val spec = w.lakeSpec(seed)
    val lake = LakeGen.generate(spec)
    val (queries, rest) =
      LakeGen.splitQueries(lake, Workload.NumQueries * Workload.QueryGroups, seed = 33L + seed)
    val embedder = LakeGen.embedderFor(spec)
    new Inputs(w, seed, LakeGen.embed(rest.columns, embedder),
      queries.map(q => embedder.embedAll(q.values)))
  }
}
