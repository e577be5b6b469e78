package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData

class CostModelSpec extends AnyFunSuite {

  private def model(seed: Long, n: Int = 200, numPivots: Int = 3) = {
    val rng = new Random(seed)
    val vs = IndexedSeq.fill(n)(TestData.unitVec(rng, 8))
    val (cm, pivots) = CostModel.fromVectors(vs, numPivots)
    (cm, pivots, vs, rng)
  }

  test("nMax is bounded by the sample size and non-negative") {
    val (cm, pivots, vs, rng) = model(1)
    (1 to 50).foreach { _ =>
      val q = pivots.map(TestData.unitVec(rng, 8))
      val n = cm.nMax(q, tau = 0.3, m = 4)
      assert(n >= 0 && n <= vs.size)
    }
  }

  test("nMax upper-bounds the true number of pivot-filter survivors") {
    val (cm, pivots, vs, rng) = model(2)
    val mapped = vs.map(pivots.map).toArray
    (1 to 50).foreach { _ =>
      val q = pivots.map(TestData.unitVec(rng, 8))
      val tau = 0.2 + rng.nextDouble() * 0.4
      val survivors = mapped.count(xm => !PivotSpace.filteredByPivots(q, xm, tau))
      // Eq. 2 inflates the range by the half cell width, so it bounds from above
      assert(cm.nMax(q, tau, m = 6) >= survivors,
        s"nMax=${cm.nMax(q, tau, 6)} survivors=$survivors")
    }
  }

  test("nMax decreases (weakly) with finer grids") {
    val (cm, pivots, _, rng) = model(3)
    (1 to 30).foreach { _ =>
      val q = pivots.map(TestData.unitVec(rng, 8))
      assert(cm.nMax(q, 0.3, m = 2) >= cm.nMax(q, 0.3, m = 6))
    }
  }

  test("nMax increases (weakly) with tau") {
    val (cm, pivots, _, rng) = model(4)
    (1 to 30).foreach { _ =>
      val q = pivots.map(TestData.unitVec(rng, 8))
      assert(cm.nMax(q, 0.5, 4) >= cm.nMax(q, 0.1, 4))
    }
  }

  test("expectedCost combines candidates and access overhead") {
    val (cm, pivots, _, rng) = model(5)
    val workload = Seq((Array.fill(5)(pivots.map(TestData.unitVec(rng, 8))), 0.3))
    val c = cm.expectedCost(workload, m = 3)
    assert(c > 0)
  }

  test("optimalM returns a level in range and the ceiling of the continuous optimum") {
    val (cm, pivots, _, rng) = model(6)
    val workload = (1 to 5).map { _ =>
      (Array.fill(8)(pivots.map(TestData.unitVec(rng, 8))), 0.2 + rng.nextDouble() * 0.3)
    }
    val (m, mCont) = cm.optimalM(workload, mMax = 8)
    assert(m >= 1 && m <= 8)
    assert(m == math.ceil(mCont).toInt)
  }

  test("optimalM is near the empirical discrete optimum of its own estimate") {
    val (cm, pivots, _, rng) = model(7)
    val workload = (1 to 5).map { _ =>
      (Array.fill(8)(pivots.map(TestData.unitVec(rng, 8))), 0.3)
    }
    val (m, _) = cm.optimalM(workload, mMax = 8)
    val best = (1 to 8).minBy(k => cm.expectedCost(workload, k.toDouble))
    assert(math.abs(m - best) <= 2, s"optimalM=$m bestDiscrete=$best")
  }

  test("distinct cells are the distinct coordsAt keys of each level") {
    val (cm, pivots, vs, _) = model(8, n = 300)
    val grid = new HierarchicalGrid(3, 16)
    val w = grid.extent / 64
    // the sample, and values one ulp below the level-6 grid lines
    val mapped = vs.map(pivots.map).toArray ++
      (0 until 64).map(c => Array.fill(3)(math.max(0.0, math.nextDown(c * w))))
    for (l <- 1 to 16) {
      val wl = grid.extent / (1 << l)
      val keys = mapped.map { v =>
        val key = grid.coordsAt(v, l)
        assert(key.indices.forall(i => key(i) * wl <= v(i) && v(i) <= (key(i) + 1) * wl), s"level $l: ${v.mkString(", ")}")
        key.toSeq
      }.distinct
      assert(cm.distinctCells(mapped, l) == keys.length, s"level $l")
    }
  }

  test("empty sample rejected") {
    intercept[IllegalArgumentException] { new CostModel(Array.empty, 2) }
  }
}
