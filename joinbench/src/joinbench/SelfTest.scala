package joinbench

/** Checks of the benchmark's own helpers; `Main --selftest` runs them and
  * exits non-zero on the first failure.
  */
object SelfTest {

  private var passed = 0

  private def check(name: String)(cond: => Boolean): Unit = {
    if (!cond) { System.err.println(s"FAIL $name"); sys.exit(1) }
    passed += 1
    println(s"ok   $name")
  }

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) < 1e-9

  def main(): Unit = {
    val xs = Array(5.0, 1.0, 4.0, 2.0, 3.0)
    check("median of an odd count is the middle sample")(close(Stats.median(xs), 3.0))
    check("median of an even count interpolates")(close(Stats.median(Array(1.0, 2.0, 3.0, 4.0)), 2.5))
    check("p0 and p100 are the extremes")(
      close(Stats.percentile(xs, 0), 1.0) && close(Stats.percentile(xs, 100), 5.0))
    check("p90 of 1..11 interpolates between ranks")(
      close(Stats.percentile(Array.tabulate(11)(i => i + 1.0), 90), 10.0))
    check("percentile does not reorder its input")({
      Stats.percentile(xs, 50); xs.sameElements(Array(5.0, 1.0, 4.0, 2.0, 3.0))
    })
    check("p90 of 100 samples leaves exactly 10 beyond")(Stats.beyond(100, 90) == 10)
    check("p90 needs 100 samples for 10 beyond")(
      Stats.hasTail(100, 90) && !Stats.hasTail(99, 90) && Stats.samplesFor(90) == 100)
    check("p50 needs 20 samples for 10 beyond")(Stats.samplesFor(50) == 20 && !Stats.hasTail(19, 50))
    check("highest percentile with 10 beyond")(
      Stats.highestWithTail(35, Seq(50, 60, 70, 75, 90)).contains(70.0) &&
      Stats.highestWithTail(1000, Seq(50, 90, 99)).contains(99.0) &&
      Stats.highestWithTail(15, Seq(50, 90)).isEmpty)
    check("answer hash ignores set order but not content")(
      Report.answerHash(Seq(Set(3, 1, 2), Set.empty)) == Report.answerHash(Seq(Set(1, 2, 3), Set.empty)) &&
      Report.answerHash(Seq(Set(1, 2))) != Report.answerHash(Seq(Set(1, 3))))
    check("json numbers keep every digit")(
      Report.num(0.1234567890123) == "0.1234567890123" && Report.num(3.0) == "3")
    println(s"$passed checks passed")
  }
}
