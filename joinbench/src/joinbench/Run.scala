package joinbench

import java.nio.file.Path
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import repro.core.{PexesoIndex, VerifyMode}
import repro.partition.OutOfCore

final case class Options(
    workload: String,
    seed: Long,
    seconds: Int,
    trace: Boolean,
    workDir: Path,
    outDir: Path,
)

/** What set-up produces: the in-memory index, or the spilled partitions. */
sealed trait Target
final case class InMemory(index: PexesoIndex) extends Target
final case class Spilled(spill: Setup.Spill) extends Target

/** One run, traced or not: a cold set-up that is discarded, warm set-ups
  * split before and after the timed window, warm-up requests, then closed
  * loop requests of [[Workload.NumQueries]] queries, the query groups in
  * round-robin order, until `seconds` have passed, every group has been
  * served equally often and enough samples exist for every reported
  * percentile. A host-speed probe runs at the start and at the end.
  */
abstract class Run(val in: Inputs, val opts: Options) {
  val w: Workload = in.workload
  val report = new Report

  /** Latency of every timed query, ms: one `PexesoIndex.search` call in
    * memory; out of core, its calls summed over the partitions.
    */
  val callMs = ArrayBuffer.empty[Double]
  /** Latency of every timed request, ms. */
  val requestMs = ArrayBuffer.empty[Double]
  /** Wall time of every warm set-up, s. */
  val setupS = ArrayBuffer.empty[Double]
  var coldSetupS: Double = 0.0
  val calibMs = ArrayBuffer.empty[Double]
  var gcCount: Long = 0L
  var gcMs: Long = 0L
  var timedRequests: Int = 0
  private val answers = Array.fill(in.queries.length)(Option.empty[Set[Int]])
  private var setups = 0
  private var served = 0

  /** Serve one request for `queries` (indices into `in.queries`) against
    * `target`; return one answer per query, `None` where it failed.
    * Implementations append to `callMs`.
    */
  protected def request(target: Target, queries: IndexedSeq[Int]): Seq[Option[Set[Int]]]

  /** Timed queries the window must reach besides its duration. */
  protected def minCalls: Int = 0

  /** Warm set-ups before and after the window; their median is `setup_s`.
    * Out-of-core set-ups take seconds each, in-memory ones a fraction of one.
    */
  private val setupsEachSide = if (w.outOfCore) 2 else 6

  /** Whether the request being served is timed (not warm-up). */
  protected var timing: Boolean = false

  /** Called after each set-up, cold or warm. */
  protected def afterSetup(target: Target, seconds: Double, cold: Boolean): Unit = ()

  /** Called once after the timed window, with the target it searched. */
  protected def afterWindow(target: Target): Unit = ()

  /** Add the run's metrics to `report`; `target` is the last set-up's. */
  protected def summarize(target: Target): Unit

  /** Build the searchable target once; out-of-core set-ups spill into a
    * fresh directory and delete the previous one.
    */
  private def setup(previous: Option[Target]): Target = {
    previous.foreach { case Spilled(s) => Setup.deleteTree(s.files.head.path.getParent); case _ => }
    val t0 = System.nanoTime()
    val target =
      if (w.outOfCore) Spilled(Setup.spill(in, opts.workDir.resolve(s"spill-$setups")))
      else InMemory(Setup.buildInMemory(in, in.repo))
    val seconds = (System.nanoTime() - t0) / 1e9
    val cold = setups == 0
    if (cold) coldSetupS = seconds else setupS += seconds
    setups += 1
    afterSetup(target, seconds, cold)
    target
  }

  /** Check answers against the oracle and keep the first of each query. */
  protected def check(queries: IndexedSeq[Int], got: Seq[Option[Set[Int]]]): Unit =
    queries.zip(got).foreach { case (i, g) =>
      report.check(g, in.oracle(i))
      if (answers(i).isEmpty) answers(i) = g
    }

  private def serve(target: Target, timed: Boolean): Unit = {
    val queries = in.group(served % Workload.QueryGroups)
    served += 1
    val calls = callMs.length
    timing = timed
    val t0 = System.nanoTime()
    val got = request(target, queries)
    val ms = (System.nanoTime() - t0) / 1e6
    if (timed) { requestMs += ms; timedRequests += 1 }
    else callMs.dropRightInPlace(callMs.length - calls)
    check(queries, got)
  }

  private def cycleDone: Boolean = served % Workload.QueryGroups == 0

  final def execute(): Report = {
    (1 to 3).foreach(_ => calibMs += Kernel.calibrationMs())
    var target = setup(None)
    (1 to setupsEachSide).foreach(_ => target = setup(Some(target)))

    val warmEnd = System.nanoTime() + Run.WarmupSeconds * 1000000000L
    while (served < Workload.QueryGroups || System.nanoTime() < warmEnd || !cycleDone)
      serve(target, timed = false)

    val (gc0, gcMs0) = Jvm.gcTotals()
    val start = System.nanoTime()
    val end = start + opts.seconds * 1000000000L
    val cap = start + 3L * opts.seconds * 1000000000L
    while (!cycleDone || (System.nanoTime() < cap &&
           (System.nanoTime() < end || callMs.length < minCalls || timedRequests < Run.MinRequests)))
      serve(target, timed = true)
    val (gc1, gcMs1) = Jvm.gcTotals()
    gcCount = gc1 - gc0; gcMs = gcMs1 - gcMs0
    if (callMs.length < minCalls) report.note(s"WARNING: only ${callMs.length} queries; p90 has fewer than 10 beyond")
    afterWindow(target)

    (1 to setupsEachSide).foreach(_ => target = setup(Some(target)))
    (1 to 3).foreach(_ => calibMs += Kernel.calibrationMs())
    summarize(target)

    report.note(f"workload=${w.name} seed=${in.seed} trace=${opts.trace} queries=${callMs.length} " +
      f"requests=$timedRequests warm_setups=${setupS.length} window_s=${(System.nanoTime() - start) / 1e9}%.1f")
    report.note(s"attempted=${report.attempted} failed=${report.failed}")
    report.note(s"answers_sha256=${
      if (answers.forall(_.isDefined)) Report.answerHash(answers.toSeq.map(_.get)) else "none"}")
    report.note(f"host.calib_ms start=${Stats.median(calibMs.take(3).toArray)}%.2f " +
      f"end=${Stats.median(calibMs.takeRight(3).toArray)}%.2f gc.count=$gcCount gc.ms=$gcMs")
    report
  }

  protected def searchOnce(index: PexesoIndex, q: Array[Array[Double]]): Set[Int] =
    index.search(q, Workload.Tau, Workload.TFrac, VerifyMode.Pexeso).joinable

  /** `f`, or `None` after printing the exception. */
  protected def attempt[A](f: => A): Option[A] =
    try Some(f) catch { case NonFatal(e) => Run.logFailure(e); None }
}

object Run {
  val WarmupSeconds = 3
  val MinRequests = 5

  private var failuresLogged = 0
  def logFailure(e: Throwable): Unit = if (failuresLogged < 3) {
    failuresLogged += 1
    System.err.println(s"operation failed: $e")
    e.printStackTrace()
  }
}

/** The untraced run: end-to-end metrics only. */
final class UntracedRun(in: Inputs, opts: Options) extends Run(in, opts) {

  /** Queries needed for a p90 with ten samples beyond it. */
  override protected def minCalls: Int = Stats.samplesFor(90)

  protected def request(target: Target, queries: IndexedSeq[Int]): Seq[Option[Set[Int]]] = target match {
    case InMemory(index) =>
      queries.map { i =>
        val t0 = System.nanoTime()
        val got = attempt(searchOnce(index, in.queries(i)))
        callMs += (System.nanoTime() - t0) / 1e6
        got
      }
    case Spilled(spill) =>
      // A query's latency is its search time summed over the partitions,
      // without the loads the batch shares.
      val merged = Array.fill(queries.length)(Set.empty[Int])
      val queryNs = new Array[Long](queries.length)
      attempt {
        spill.files.foreach { f =>
          val index = OutOfCore.load(f)
          queries.indices.foreach { j =>
            val t0 = System.nanoTime()
            merged(j) ++= searchOnce(index, in.queries(queries(j)))
            queryNs(j) += System.nanoTime() - t0
          }
        }
      }.fold(Seq.fill(merged.length)(Option.empty[Set[Int]])) { _ =>
        queryNs.foreach(ns => callMs += ns / 1e6)
        merged.toSeq.map(Some(_))
      }
  }

  private var indexBytes = 0.0

  override protected def afterSetup(target: Target, seconds: Double, cold: Boolean): Unit =
    if (cold) indexBytes = target match {
      case Spilled(spill) => spill.bytes.toDouble
      case InMemory(_)    => Stats.median(Array.fill(3)(Setup.retainedBytes(in).toDouble))
    }

  protected def summarize(target: Target): Unit = {
    val calls = callMs.toArray
    val requests = requestMs.toArray
    report.metric("query_ms_p50", Stats.median(calls), "ms")
    report.metric("query_ms_p90", Stats.percentile(calls, 90), "ms")
    report.metric("batch_ms_p50", Stats.median(requests), "ms")
    report.metric("qps", timedRequests * Workload.NumQueries / (requests.sum / 1e3), "1/s")
    report.metric("setup_s", Stats.median(setupS.toArray), "s")
    report.metric("index_bytes_per_vector_byte", indexBytes / in.vectorBytes, "B/B")
    report.metric("exact_frac", (report.attempted - report.failed).toDouble / report.attempted, "frac")
    val tail = Stats.highestWithTail(requests.length, Seq(50, 60, 70, 75, 80, 90, 95, 99))
    report.note(s"samples: query_ms over ${calls.length} queries, batch_ms over ${requests.length} requests" +
      tail.filter(_ > 50).fold("")(p => f"; batch_ms_p${p.toInt} = ${Stats.percentile(requests, p)}%.3f"))
  }
}
