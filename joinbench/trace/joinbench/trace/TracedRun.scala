package joinbench.trace

import java.nio.file.Files
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import joinbench._
import repro.core.{Block, CostModel, HierarchicalGrid, PexesoIndex, Verify}
import repro.partition.{JsdClustering, OutOfCore}

/** The traced run: per-layer metrics.
  *
  * Each search is rebuilt from the program's public layer calls, each
  * call inside a span: `PivotSet.mapAll`, `HierarchicalGrid.insert`,
  * `Block.run`, `Verify.pexeso`; out of core, `OutOfCore.load` comes first
  * for each partition. Every rebuilt answer must equal the answer of a
  * plain `PexesoIndex.search` on the same index and the oracle's, so a
  * change to the internals fails this run instead of timing another
  * program. The plain calls also give the tracing overhead.
  *
  * Search-layer metrics are per query (summed over partitions out of
  * core), load metrics per partition, set-up metrics per set-up. Timed
  * metrics are medians over cycles of requests that cover every query
  * once, allocation the least over cycles; counts are per query over all
  * queries and must repeat on every cycle. GC is the window's mean per
  * request.
  */
final class TracedRun(in: Inputs, opts: Options) extends Run(in, opts) {
  private val spans = new Spans
  private val tAbs = in.queries.map(q => Verify.absThreshold(Workload.TFrac, q.length))
  private val nQ = Workload.NumQueries.toDouble

  /** Per-request values of each metric, over timed requests. */
  private val perRequest = mutable.LinkedHashMap.empty[String, ArrayBuffer[Double]]
  private def record(name: String, v: Double): Unit =
    perRequest.getOrElseUpdate(name, ArrayBuffer.empty) += v
  /** Median over cycles of the per-request values of `name`. */
  private def med(name: String): Double =
    Stats.median(perRequest(name).grouped(Workload.QueryGroups).map(_.sum / Workload.QueryGroups).toArray)
  private def total(name: String): Double = perRequest(name).sum
  /** Allocation bytes: the least over cycles. The first cycle can allocate
    * a few kilobytes more while classes load and code paths warm up.
    */
  private def leastAlloc(name: String): Double =
    perRequest(name).grouped(Workload.QueryGroups).map(_.sum / Workload.QueryGroups).min

  /** Counts per query group, taken on its first request and checked on every later one. */
  private val counts = mutable.Map.empty[Int, Map[String, Long]]
  private var plainNs = 0L
  private var requests = 0

  /** Set-up split into its parts, one entry per warm set-up or probe. */
  private val buildMs, jsdMs, spillMs, spillBytes = ArrayBuffer.empty[Double]
  /** Set while the in-memory lake is searched through a spilled copy. */
  private var probing = false

  private def fail(msg: String): Unit = {
    if (report.checksPassed) System.err.println(s"trace check failed: $msg")
    report.checksPassed = false
  }

  /** One search rebuilt from its layer calls; adds its counts to `c`. */
  private def tracedSearch(index: PexesoIndex, qi: Int, firstSeen: Boolean,
                           c: mutable.Map[String, Long]): Set[Int] = {
    val q = in.queries(qi)
    spans("search") {
      val qm = spans("pivot_map")(index.pivots.mapAll(q))
      val hgQ = spans("hgq_build") {
        val g = new HierarchicalGrid(index.numPivots, index.levels, index.grid.extent)
        var i = 0
        while (i < qm.length) { g.insert(qm(i), i); i += 1 }
        g
      }
      val block = spans("block")(Block.run(hgQ, index.grid, qm, Workload.Tau, quickBrowsing = true))
      val (joinable, stats) = spans("verify")(
        Verify.pexeso(block, index.inverted, qm, q, Workload.Tau, tAbs(qi)))
      c("block.candidate_pairs") += block.candidates.length
      c("block.matching_pairs") += block.matching.length
      c("verify.distances") += stats.distanceComputations
      if (firstSeen) {
        val leaves = hgQ.leafCells.toSeq
        c("hgq.leaf_cells") += leaves.length
        c("block.quick_pairs") += leaves.iterator.filter(l => index.grid.leaf(l.key).isDefined)
          .map(_.payloads.length.toLong).sum
        c("verify.candidate_postings") += block.candidates.iterator
          .map(p => index.inverted.postingsIn(p._2).length.toLong).sum
      }
      joinable
    }
  }

  /** Search `index` for `queries`, traced and plain in alternating order
    * (traced only while probing).
    */
  private def searchAll(index: PexesoIndex, queries: IndexedSeq[Int], firstSeen: Boolean,
                        merged: Array[Set[Int]], c: mutable.Map[String, Long]): Unit =
    queries.indices.foreach { j =>
      val qi = queries(j)
      def plain(): Set[Int] = {
        val t0 = System.nanoTime()
        val got = searchOnce(index, in.queries(qi))
        val ns = System.nanoTime() - t0
        plainNs += ns
        callMs += ns / 1e6
        got
      }
      val traced =
        if (probing) tracedSearch(index, qi, firstSeen, c)
        else {
          val (t, reference) =
            if (requests % 2 == 0) { val t = tracedSearch(index, qi, firstSeen, c); (t, plain()) }
            else { val p = plain(); (tracedSearch(index, qi, firstSeen, c), p) }
          if (t != reference) fail(s"rebuilt search of query $qi differs from PexesoIndex.search")
          t
        }
      merged(j) ++= traced
    }

  protected def request(target: Target, queries: IndexedSeq[Int]): Seq[Option[Set[Int]]] = {
    requests += 1
    spans.startRequest()
    spans.takeSums()
    plainNs = 0L
    val group = queries.head / Workload.NumQueries
    val firstSeen = !counts.contains(group)
    val c = mutable.LinkedHashMap.empty[String, Long].withDefaultValue(0L)
    val merged = Array.fill(queries.length)(Set.empty[Int])
    val loadBytes = attempt(target match {
      case InMemory(index) => searchAll(index, queries, firstSeen, merged, c); 0L
      case Spilled(spill) =>
        spill.files.iterator.map { f =>
          val index = spans("load")(OutOfCore.load(f))
          searchAll(index, queries, firstSeen, merged, c)
          Files.size(f.path)
        }.sum
    })
    if (loadBytes.isEmpty) return Seq.fill(queries.length)(None)

    if (firstSeen) counts(group) = c.toMap
    else counts(group).foreach { case (k, v) =>
      if (c.contains(k) && c(k) != v) fail(s"$k of query group $group changed from $v to ${c(k)}")
    }
    if (timing) {
      val sums = spans.takeSums()
      def ns(name: String): Double = sums.get(name).fold(0.0)(_._1.toDouble)
      def bytes(name: String): Double = sums.get(name).fold(0.0)(_._2.toDouble)
      if (!probing) {
        val layers = Seq("pivot_map", "hgq_build", "block", "verify")
        layers.foreach(l => record(s"$l.us", ns(l) / 1e3 / nQ))
        record("block.alloc_bytes", bytes("block") / nQ)
        record("verify.alloc_bytes", bytes("verify") / nQ)
        record("search.ns", ns("search"))
        record("layers.ns", layers.map(ns).sum)
        record("plain.ns", plainNs.toDouble)
      }
      target match {
        case Spilled(spill) =>
          val parts = spill.files.length.toDouble
          record("load.us", ns("load") / 1e3 / parts)
          record("load.alloc_bytes", bytes("load") / parts)
          record("load.bytes", loadBytes.get / parts)
          record("ooc_search.us", ns("search") / 1e3 / parts)
        case InMemory(_) =>
      }
    }
    merged.toSeq.map(Some(_))
  }

  /** Split an out-of-core set-up into JSD, build and spill by loading each
    * partition back for the build time it recorded.
    */
  override protected def afterSetup(target: Target, seconds: Double, cold: Boolean): Unit = target match {
    case Spilled(spill) if !cold =>
      val buildNs = spill.files.map(f => OutOfCore.load(f).buildNanos).sum
      buildMs += buildNs / 1e6
      jsdMs += spill.jsdNanos / 1e6
      spillMs += (spill.totalNanos - spill.jsdNanos - buildNs) / 1e6
      spillBytes += spill.bytes.toDouble
    case InMemory(index) if !cold => buildMs += index.buildNanos / 1e6
    case _ =>
  }

  /** In memory there is no partitioning or spill in set-up, and no load in
    * a request. To keep every layer metric defined on every workload, the
    * lake is also clustered by JSD, spilled as one partition and searched
    * through loads of it, one request per query group, after the window;
    * the in-memory end-to-end metrics never include this.
    */
  override protected def afterWindow(target: Target): Unit = target match {
    case InMemory(_) =>
      (0 until Workload.QueryGroups).foreach { g =>
        val t0 = System.nanoTime()
        JsdClustering.cluster(in.repo, 10)
        val t1 = System.nanoTime()
        val files = OutOfCore.buildAndSpill(Map(0 -> in.repo), w.numPivots, w.levels,
          opts.workDir.resolve(s"probe-$g"))
        val t2 = System.nanoTime()
        val spill = new Setup.Spill(Map(0 -> in.repo), files, 0L, t2 - t1)
        jsdMs += (t1 - t0) / 1e6
        spillMs += (t2 - t1 - OutOfCore.load(files.head).buildNanos) / 1e6
        spillBytes += spill.bytes.toDouble
        probing = true
        timing = true
        check(in.group(g), request(Spilled(spill), in.group(g)))
        probing = false
        Setup.deleteTree(files.head.path.getParent)
      }
    case Spilled(_) =>
  }

  /** Predicted exact distances per query from the cost model (Eq. 1-2)
    * at the workload's m, over each index's own pivots.
    */
  private def predictedDistances(indexes: Seq[(PexesoIndex, Seq[Array[Double]])]): Double =
    indexes.map { case (index, vectors) =>
      val model = new CostModel(vectors.map(index.pivots.map).toArray, index.numPivots)
      in.queries.iterator.map { q =>
        q.iterator.map(v => model.nMax(index.pivots.map(v), Workload.Tau, w.levels.toDouble)).sum
      }.sum
    }.sum / in.queries.length

  protected def summarize(target: Target): Unit = {
    def perQ(k: String): Double = counts.valuesIterator.map(_.getOrElse(k, 0L)).sum.toDouble / in.queries.length
    val (indexes, leafCells) = target match {
      case InMemory(index) => (Seq(index -> in.repo.flatMap(_.vectors)), index.inverted.numCells.toLong)
      case Spilled(spill) =>
        val loaded = spill.files.map(f => f.partition -> OutOfCore.load(f))
        (loaded.map { case (p, idx) => idx -> spill.parts(p).flatMap(_.vectors) },
          loaded.map(_._2.inverted.numCells.toLong).sum)
    }
    val distances = perQ("verify.distances")
    val floorMs = Stats.median(Array.fill(5)(Kernel.timeMs((distances * in.queries.length).toLong, in.dim)))
    val searchNs = total("search.ns")
    val share = (l: String) => total(s"$l.us") * 1e3 * nQ / searchNs

    report.metric("pivot_map.us", med("pivot_map.us"), "us")
    report.metric("hgq_build.us", med("hgq_build.us"), "us")
    report.metric("hgq.leaf_cells", perQ("hgq.leaf_cells"), "count")
    report.metric("index.leaf_cells", leafCells.toDouble, "count")
    report.metric("block.us", med("block.us"), "us")
    report.metric("block.alloc_bytes", leastAlloc("block.alloc_bytes"), "B")
    report.metric("block.candidate_pairs", perQ("block.candidate_pairs"), "count")
    report.metric("block.matching_pairs", perQ("block.matching_pairs"), "count")
    report.metric("block.quick_pairs", perQ("block.quick_pairs"), "count")
    report.metric("block.search_frac", share("block"), "frac")
    report.metric("verify.us", med("verify.us"), "us")
    report.metric("verify.alloc_bytes", leastAlloc("verify.alloc_bytes"), "B")
    report.metric("verify.distances", distances, "count")
    report.metric("verify.candidate_postings", perQ("verify.candidate_postings"), "count")
    report.metric("verify.distance_frac", distances / perQ("verify.candidate_postings"), "frac")
    report.metric("verify.kernel_floor_us", floorMs * 1e3 / in.queries.length, "us")
    report.metric("verify.kernel_flops", distances * 3.0 * in.dim, "flop")
    report.metric("verify.kernel_bytes", distances * 8.0 * in.dim, "B")
    report.metric("verify.search_frac", share("verify"), "frac")
    report.metric("costmodel.predicted_distances", predictedDistances(indexes), "count")
    report.metric("load.us", med("load.us"), "us")
    report.metric("load.bytes", med("load.bytes"), "B")
    report.metric("load.alloc_bytes", perRequest("load.alloc_bytes").min, "B")
    report.metric("ooc_search.us", med("ooc_search.us"), "us")
    report.metric("load.batch_frac", total("load.us") / (total("load.us") + total("ooc_search.us")), "frac")
    report.metric("setup.cold_s", coldSetupS, "s")
    report.metric("setup.build_ms", Stats.median(buildMs.toArray), "ms")
    report.metric("setup.jsd_ms", Stats.median(jsdMs.toArray), "ms")
    report.metric("setup.spill_ms", Stats.median(spillMs.toArray), "ms")
    report.metric("setup.spill_bytes", Stats.median(spillBytes.toArray), "B")
    report.metric("trace.overhead_frac", searchNs / total("plain.ns") - 1.0, "frac")
    report.metric("trace.unattributed_frac", 1.0 - total("layers.ns") / searchNs, "frac")
    report.metric("gc.ms", gcMs.toDouble / timedRequests, "ms")
    report.metric("gc.count", gcCount.toDouble / timedRequests, "count")
    report.metric("host.calib_ms", Stats.median(calibMs.toArray), "ms")

    spans.write(opts.outDir.resolve(s"spans-${w.name}-seed${in.seed}.tsv"))
  }
}
