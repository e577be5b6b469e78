package joinbench.trace

import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import joinbench.Jvm

/** Spans recorded in memory: name, start, end, parent span, request id and
  * the bytes the thread allocated inside the span. A span's own records
  * are written after its clock and allocation counter stop, so a leaf
  * span's bytes are the layer's alone. Per-name sums since the last
  * [[takeSums]] feed the per-request layer metrics; [[write]] dumps every
  * span at exit.
  */
final class Spans {
  import Spans.Rec

  private val recs = ArrayBuffer.empty[Rec]
  private val open = new Array[Int](64)
  private var depth = 0
  private var nextId = 0
  private var request = 0

  /** Per span name: (nanoseconds, allocated bytes) since the last take. */
  private val sums = mutable.LinkedHashMap.empty[String, Array[Long]]

  def startRequest(): Unit = request += 1

  def apply[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = if (depth == 0) -1 else open(depth - 1)
    open(depth) = id
    depth += 1
    val a0 = Jvm.allocatedBytes()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val alloc = Jvm.allocatedBytes() - a0
      depth -= 1
      recs += Rec(id, parent, request, name, t0, t1, alloc)
      val s = sums.getOrElseUpdate(name, new Array[Long](2))
      s(0) += t1 - t0; s(1) += alloc
    }
  }

  /** (nanoseconds, allocated bytes) per span name since the last call. */
  def takeSums(): Map[String, (Long, Long)] = {
    val out = sums.map { case (k, s) => k -> ((s(0), s(1))) }.toMap
    sums.clear()
    out
  }

  /** Tab-separated: id, parent, request, name, start_ns, end_ns, alloc_bytes. */
  def write(path: Path): Unit = {
    val sb = new StringBuilder("id\tparent\trequest\tname\tstart_ns\tend_ns\talloc_bytes\n")
    recs.sortBy(_.id).foreach { r =>
      sb ++= s"${r.id}\t${r.parent}\t${r.request}\t${r.name}\t${r.start}\t${r.end}\t${r.alloc}\n"
    }
    Files.createDirectories(path.getParent)
    Files.writeString(path, sb)
  }
}

object Spans {
  private final case class Rec(id: Int, parent: Int, request: Int, name: String,
                               start: Long, end: Long, alloc: Long)
}
