package joinbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import scala.collection.mutable

/** What one run prints: named metrics with units, operation counts and
  * human-readable notes. The last line of standard output is [[json]].
  */
final class Report {
  val metrics: mutable.LinkedHashMap[String, (Double, String)] = mutable.LinkedHashMap.empty
  var attempted: Long = 0L
  var failed: Long = 0L
  /** Cleared by any check that fails besides a wrong answer. */
  var checksPassed: Boolean = true
  val notes: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def metric(name: String, value: Double, unit: String): Unit = {
    require(!metrics.contains(name), s"metric $name reported twice")
    metrics(name) = (value, unit)
  }

  def note(line: String): Unit = notes += line

  /** Record one answer against the oracle; an exception counts as `None`. */
  def check(got: Option[Set[Int]], want: Set[Int]): Unit = {
    attempted += 1
    if (!got.contains(want)) failed += 1
  }

  def correct: Boolean = checksPassed && failed == 0 && attempted > 0

  def json: String = {
    val ms = metrics.map { case (k, (v, u)) =>
      s""""$k": {"value": ${Report.num(v)}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }
}

object Report {
  /** A JSON number with every digit the double carries. */
  def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalArgumentException(s"metric value $v is not a number")
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString

  /** SHA-256 of the answers, one line of sorted column ids per query. */
  def answerHash(answers: Seq[Set[Int]]): String = {
    val text = answers.map(_.toSeq.sorted.mkString(",")).mkString("\n")
    MessageDigest.getInstance("SHA-256")
      .digest(text.getBytes(StandardCharsets.UTF_8))
      .map(b => f"${b & 0xff}%02x").mkString
  }
}
