package repro.partition

import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardCopyOption, StandardOpenOption}
import repro.core.{ColumnVectors, IndexFormat, PexesoIndex, SearchResult, VerifyMode}

/** Out-of-core joinable table search (paper Section IV): when the lake's
  * index does not fit in memory, each partition is indexed by its own
  * PEXESO, spilled to disk, and at query time the per-partition indexes
  * are loaded back '''one at a time''', searched with the whole query
  * batch, and the results merged. Table VII (right third) reports search
  * time including the index loads.
  */
object OutOfCore {

  /** Handle to a spilled per-partition index. */
  final case class SpilledIndex(partition: Int, path: Path, numColumns: Int)

  /** Build one PEXESO per partition and write it to `dir` in
    * [[IndexFormat]]. Each file is written under a `.tmp` name, flushed to
    * disk and renamed into place, and the rename is flushed too, so neither
    * an interrupted spill nor a crash after it leaves a partial index file
    * under its final name.
    */
  def buildAndSpill(
      parts: Map[Int, IndexedSeq[ColumnVectors]],
      numPivots: Int,
      levels: Int,
      dir: Path,
  ): Seq[SpilledIndex] = {
    Files.createDirectories(dir)
    parts.toSeq.sortBy(_._1).map { case (p, cols) =>
      val index = PexesoIndex.build(cols, numPivots, levels)
      val path = dir.resolve(s"pexeso-part-$p.bin")
      val tmp = dir.resolve(s"pexeso-part-$p.bin.tmp")
      try {
        IndexFormat.write(index, tmp)
        Files.move(tmp, path, StandardCopyOption.ATOMIC_MOVE)
        val d = FileChannel.open(dir, StandardOpenOption.READ)
        try d.force(true) finally d.close()
      } finally Files.deleteIfExists(tmp)
      SpilledIndex(p, path, cols.size)
    }
  }

  /** Read a spilled index back; a truncated, corrupt or foreign file fails
    * with an `IOException` naming the file and the check.
    */
  def load(spilled: SpilledIndex): PexesoIndex = IndexFormat.read(spilled.path)

  /** Search results of a query batch: one [[SearchResult]] per query, and
    * the time spent loading partitions. A load serves the whole batch, so
    * its time is reported once here rather than charged to any one query.
    */
  final case class BatchResult(perQuery: IndexedSeq[SearchResult], loadNanos: Long)

  /** Load each partition once, run every query against it and discard it.
    * Each query's joinable set is merged over partitions; its block and
    * verify nanoseconds, distances, candidate and matching pairs are summed.
    * τ and T are checked as [[PexesoIndex.search]] checks them, before the
    * first load.
    */
  def search(
      spilled: Seq[SpilledIndex],
      queries: Seq[Array[Array[Double]]],
      tau: Double,
      tFrac: Double,
      mode: VerifyMode = VerifyMode.Pexeso,
  ): BatchResult = {
    PexesoIndex.checkThresholds(tau, tFrac)
    val acc = Array.fill(queries.length)(SearchResult(Set.empty, 0L, 0L, 0L, 0L, 0L))
    var loadNs = 0L
    spilled.foreach { s =>
      val t0 = System.nanoTime()
      val index = load(s)
      loadNs += System.nanoTime() - t0
      queries.indices.foreach { i =>
        val r = index.search(queries(i), tau, tFrac, mode)
        val a = acc(i)
        acc(i) = SearchResult(a.joinable ++ r.joinable,
          a.blockNanos + r.blockNanos, a.verifyNanos + r.verifyNanos,
          a.distanceComputations + r.distanceComputations,
          a.candidatePairs + r.candidatePairs, a.matchingPairs + r.matchingPairs)
      }
    }
    BatchResult(acc.toIndexedSeq, loadNs)
  }
}
