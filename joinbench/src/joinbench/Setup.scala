package joinbench

import java.nio.file.{Files, Path}
import repro.core.{ColumnVectors, PexesoIndex}
import repro.partition.{JsdClustering, OutOfCore, Partitioners}

/** Set-up: the path from an embedded lake to a searchable index. Lake
  * generation, embedding and the oracle are not part of it.
  */
object Setup {

  def buildInMemory(in: Inputs, repo: IndexedSeq[ColumnVectors]): PexesoIndex =
    PexesoIndex.build(repo, in.workload.numPivots, in.workload.levels)

  /** Retained heap of an in-memory index, in bytes: heap in use while it
    * is alive minus heap in use once it is dropped. The index is built
    * over a deep copy of the lake that only the index keeps alive, so the
    * vectors it references are counted as index bytes.
    */
  def retainedBytes(in: Inputs): Long = {
    val withIndex = heapWithCopyIndex(in)
    withIndex - Jvm.usedHeapAfterGc()
  }

  private def heapWithCopyIndex(in: Inputs): Long = {
    val index = buildInMemory(in, in.repo.map(c => c.copy(vectors = c.vectors.map(_.clone()))))
    val used = Jvm.usedHeapAfterGc()
    java.lang.ref.Reference.reachabilityFence(index)
    used
  }

  /** A lake clustered by JSD and spilled one PEXESO index per partition. */
  final class Spill(
      val parts: Map[Int, IndexedSeq[ColumnVectors]],
      val files: Seq[OutOfCore.SpilledIndex],
      val jsdNanos: Long,
      val totalNanos: Long,
  ) {
    def bytes: Long = files.iterator.map(f => Files.size(f.path)).sum
  }

  /** JSD clustering, split, then build and spill every partition to `dir`. */
  def spill(in: Inputs, dir: Path): Spill = {
    val w = in.workload
    val t0 = System.nanoTime()
    val parts = Partitioners.split(in.repo, JsdClustering.cluster(in.repo, w.partitions))
    val t1 = System.nanoTime()
    val files = OutOfCore.buildAndSpill(parts, w.numPivots, w.levels, dir)
    new Spill(parts, files, t1 - t0, System.nanoTime() - t0)
  }

  def deleteTree(p: Path): Unit = if (Files.exists(p)) {
    if (Files.isDirectory(p)) {
      val s = Files.list(p)
      try s.toArray.foreach(c => deleteTree(c.asInstanceOf[Path])) finally s.close()
    }
    Files.delete(p)
  }
}
