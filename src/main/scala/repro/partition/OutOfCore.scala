package repro.partition

import java.nio.file.{Files, Path, StandardCopyOption}
import repro.core.{ColumnVectors, IndexFormat, PexesoIndex, SearchResult, VerifyMode}

/** Out-of-core joinable table search (paper Section IV): when the lake's
  * index does not fit in memory, each partition is indexed by its own
  * PEXESO, spilled to disk, and at query time the per-partition indexes
  * are loaded back '''one at a time''', searched, and the results merged.
  * Reported search time includes the index-loading overhead, as in
  * Table VII (right third).
  */
object OutOfCore {

  /** Handle to a spilled per-partition index. */
  final case class SpilledIndex(partition: Int, path: Path, numColumns: Int)

  /** Build one PEXESO per partition and write it to `dir` in
    * [[IndexFormat]]. Each file is written under a `.tmp` name and renamed
    * into place, so an interrupted spill leaves no partial index file under
    * its final name.
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
      } finally Files.deleteIfExists(tmp)
      SpilledIndex(p, path, cols.size)
    }
  }

  /** Read a spilled index back; a truncated, corrupt or foreign file fails
    * with an `IOException` naming the file and the check.
    */
  def load(spilled: SpilledIndex): PexesoIndex = IndexFormat.read(spilled.path)

  /** Batched search: load each partition once, run every query column
    * against it, merge per-query joinable sets. This is the natural
    * query-workload protocol (the paper reports totals over 100 queries);
    * timing covers loading + searching.
    */
  def searchBatch(
      spilled: Seq[SpilledIndex],
      queries: Seq[Array[Array[Double]]],
      tau: Double,
      tFrac: Double,
      mode: VerifyMode = VerifyMode.Pexeso,
  ): (Seq[Set[Int]], Long) = {
    val results = Array.fill(queries.length)(Set.empty[Int])
    val t0 = System.nanoTime()
    spilled.foreach { s =>
      val index = load(s)
      queries.indices.foreach { i =>
        results(i) = results(i) ++ index.search(queries(i), tau, tFrac, mode).joinable
      }
    }
    (results.toSeq, System.nanoTime() - t0)
  }

  /** Search every partition sequentially (load → search → discard) and
    * merge the joinable sets. Loading time is reported as `loadNanos`.
    */
  def search(
      spilled: Seq[SpilledIndex],
      query: Array[Array[Double]],
      tau: Double,
      tFrac: Double,
      mode: VerifyMode = VerifyMode.Pexeso,
  ): SearchResult = {
    var joinable = Set.empty[Int]
    var loadNs = 0L; var blockNs = 0L; var verifyNs = 0L
    var dists = 0L; var cands = 0L; var matches = 0L
    spilled.foreach { s =>
      val t0 = System.nanoTime()
      val index = load(s)
      loadNs += System.nanoTime() - t0
      val r = index.search(query, tau, tFrac, mode)
      joinable ++= r.joinable
      blockNs += r.blockNanos; verifyNs += r.verifyNanos
      dists += r.distanceComputations; cands += r.candidatePairs; matches += r.matchingPairs
    }
    SearchResult(joinable, blockNs, verifyNs, dists, cands, matches, loadNanos = loadNs)
  }
}
