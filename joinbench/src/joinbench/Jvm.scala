package joinbench

import java.lang.management.ManagementFactory
import scala.jdk.CollectionConverters._

/** JVM-level probes: heap after a full collection, collector totals and
  * the bytes the current thread has allocated.
  */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Heap in use after full collections (the JVM runs with SerialGC, whose
    * `System.gc()` is a stop-the-world full compaction).
    */
  def usedHeapAfterGc(): Long = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** (collections, milliseconds) summed over all collectors so far. */
  def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(b => math.max(0L, b.getCollectionCount)).sum,
     beans.map(b => math.max(0L, b.getCollectionTime)).sum)
  }
}

/** A bare, allocation-free distance loop over a flat array: the host-speed
  * probe, and the floor a verification loop of the same size could reach.
  */
object Kernel {
  private val Rows = 64
  @volatile private var sink = 0L

  /** Time `count` Euclidean distances at dimension `dim` against a small
    * cache-resident block. The block is filled before the clock starts; the
    * hit count keeps the loop from being optimised away.
    */
  def timeMs(count: Long, dim: Int, tau: Double = 0.5): Double = {
    val data = Array.tabulate(Rows * dim)(i => ((i * 2654435761L) % 1000L) / 1000.0 / dim)
    val q = Array.tabulate(dim)(i => ((i * 40503L) % 1000L) / 1000.0 / dim)
    val t0 = System.nanoTime()
    var hits = 0L
    var n = 0L
    while (n < count) {
      val base = (n & (Rows - 1)).toInt * dim
      var s = 0.0
      var j = 0
      while (j < dim) { val d = q(j) - data(base + j); s += d * d; j += 1 }
      if (math.sqrt(s) <= tau) hits += 1
      n += 1
    }
    val ms = (System.nanoTime() - t0) / 1e6
    sink = hits
    ms
  }

  /** The fixed host-speed probe: one million distances at dimension 64. */
  def calibrationMs(): Double = timeMs(1000000L, 64)
}
