package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class VerifySpec extends AnyFunSuite {

  test("absThreshold: smallest count whose fraction reaches T") {
    assert(Verify.absThreshold(0.5, 10) == 5)
    assert(Verify.absThreshold(0.51, 10) == 6)
    assert(Verify.absThreshold(0.2, 10) == 2)
    assert(Verify.absThreshold(0.6, 5) == 3)
  }

  test("absThreshold is at least 1") {
    assert(Verify.absThreshold(0.0, 10) == 1)
    assert(Verify.absThreshold(0.01, 5) == 1)
  }

  test("absThreshold handles exact boundaries without float drift") {
    // 0.6 * 5 = 3.0000000000000004 in IEEE — must still be 3
    assert(Verify.absThreshold(0.6, 5) == 3)
    assert(Verify.absThreshold(0.3, 10) == 3)
    assert(Verify.absThreshold(1.0, 7) == 7)
  }

  test("absThreshold: T=100% requires every query vector") {
    (1 to 20).foreach(n => assert(Verify.absThreshold(1.0, n) == n))
  }

  test("sqThreshold: s <= t exactly when sqrt(s) <= tau, around t") {
    // 0.12 and 0.06·2 are not representable in binary; the random sweep
    // covers the rest of [0, 2.5]
    val rng = new Random(5)
    val taus = Seq(0.0, Double.MinPositiveValue, 1e-300, 1e-9, 0.06 * 2, 0.12, 0.1, 0.25,
      1.0 / 3, 0.5, 1.0, math.sqrt(2), 2.0, 2.0 + 1e-6, 1e10, 1e200) ++
      Seq.fill(2000)(rng.nextDouble() * 2.5)
    taus.foreach { tau =>
      val t = Verify.sqThreshold(tau)
      Seq(t, math.nextUp(t), math.nextDown(t)).filter(_ >= 0).foreach { s =>
        assert((s <= t) == (math.sqrt(s) <= tau), s"tau=$tau t=$t s=$s")
      }
    }
  }
}
