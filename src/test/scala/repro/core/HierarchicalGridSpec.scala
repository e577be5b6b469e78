package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.immutable.ArraySeq
import scala.util.Random

class HierarchicalGridSpec extends AnyFunSuite {

  test("a level-l coordinate is the code's top l bits") {
    val g = new HierarchicalGrid(2, 3, extent = 2.0)
    val w = GridGeometry.codeWidth(2.0)
    val v = Array(0.7, 1.3)
    val codes = v.map(GridGeometry.code(_, w))
    (1 to 16).foreach(l => assert(g.coordsAt(v, l).toSeq == codes.toSeq.map(_ >> (16 - l)), s"level $l"))
    assert(g.coordsAt(v, 3).toSeq == Seq(2, 5))
  }

  test("coordsAt places a point in the right cell") {
    val g = new HierarchicalGrid(2, 2, extent = 2.0)
    assert(g.coordsAt(Array(0.1, 1.9), 1).toSeq == Seq(0, 1))
    assert(g.coordsAt(Array(0.1, 1.9), 2).toSeq == Seq(0, 3))
  }

  test("coordsAt clamps out-of-range values") {
    val g = new HierarchicalGrid(1, 2, extent = 2.0)
    assert(g.coordsAt(Array(2.5), 2).toSeq == Seq(3))
    assert(g.coordsAt(Array(-0.5), 2).toSeq == Seq(0))
  }

  test("insert stores the payload at its leaf") {
    val g = new HierarchicalGrid(2, 3)
    g.insert(Array(0.3, 0.7), payload = 42)
    assert(g.coordsAt(Array(0.3, 0.7), 3).toSeq == Seq(1, 2))
    assert(g.leafCells.toSeq == Seq(HierarchicalGrid.Leaf(0, ArraySeq(1, 2), IndexedSeq(42))))
  }

  test("only non-empty cells are materialized") {
    val g = new HierarchicalGrid(2, 2)
    g.insert(Array(0.1, 0.1), 0)
    g.insert(Array(1.9, 1.9), 1)
    assert(g.numLeaves == 2)
    assert(g.leafCells.map(_.key).toSeq == Seq(ArraySeq(0, 0), ArraySeq(3, 3)))
  }

  test("same-cell vectors share one leaf") {
    val g = new HierarchicalGrid(2, 2)
    g.insert(Array(0.10, 0.10), 0)
    g.insert(Array(0.12, 0.11), 1)
    val a = g.coordsAt(Array(0.10, 0.10), 2)
    assert(a.toSeq == g.coordsAt(Array(0.12, 0.11), 2).toSeq)
    assert(g.numLeaves == 1)
    assert(g.leaf(ArraySeq.unsafeWrapArray(a)).get.payloads == Seq(0, 1))
  }

  test("leaf lookup by key finds the materialized leaf") {
    val g = new HierarchicalGrid(2, 3)
    g.insert(Array(0.3, 1.7), 5)
    val key = ArraySeq.unsafeWrapArray(g.coordsAt(Array(0.3, 1.7), 3))
    val found = g.leaf(key)
    assert(found.isDefined)
    assert(found.get.key == key && found.get.payloads == Seq(5))
    assert(g.leaf(ArraySeq(7, 7)).isEmpty)
    assert(g.leaf(ArraySeq(1)).isEmpty)
  }

  test("node box bounds contain the inserted vector") {
    // exactly, as computed doubles: also one ulp below a grid line, where
    // dividing by the cell width rounds up into the next leaf (0.6250003125
    // at m = 6 is one such value)
    val rng = new Random(1)
    for (levels <- Seq(4, 6, 16)) {
      val g = new HierarchicalGrid(3, levels)
      val w = g.extent / (1 << levels)
      def value(): Double = rng.nextInt(3) match {
        case 0 => rng.nextDouble() * 2.0
        case 1 => math.max(0.0, math.nextDown(rng.nextInt(1 << levels) * w))
        case _ => rng.nextInt(1 << levels) * w
      }
      (1 to 300).foreach { i =>
        val v = if (i == 1) Array(0.6250003125, 0.1250003125, 2.0) else Array.fill(3)(value())
        g.insert(v, i)
        val key = ArraySeq.unsafeWrapArray(g.coordsAt(v, g.levels))
        assert(g.leaf(key).exists(_.payloads.contains(i)))
        (0 until 3).foreach { d =>
          assert(key(d) * w <= v(d) && v(d) <= (key(d) + 1) * w, s"m=$levels: ${v(d)} is outside leaf ${key(d)}")
        }
      }
    }
  }

  test("leaves iterator returns exactly the leaf level") {
    val g = new HierarchicalGrid(2, 3)
    val inserted = (1 to 50).map { i =>
      val rng = new Random(i)
      val v = Array(rng.nextDouble() * 2, rng.nextDouble() * 2)
      g.insert(v, i)
      g.coordsAt(v, 3).toSeq
    }
    assert(g.leafCells.map(_.key.toSeq).toSet == inserted.toSet)
  }

  test("leaves are sorted by coordinates, ids are ranks, and payloads keep insertion order") {
    val rng = new Random(2)
    val g = new HierarchicalGrid(3, 2)
    val vs = Array.fill(300)(Array.fill(3)(rng.nextDouble() * 2.0))
    vs.indices.foreach(i => g.insert(vs(i), i))
    val leaves = g.leafCells.toSeq
    assert(leaves.map(_.id) == leaves.indices)
    val keys = leaves.map(_.key.toList)
    assert(keys == keys.sorted(Ordering.Implicits.seqOrdering[List, Int]) && keys.distinct == keys)
    leaves.foreach { l =>
      assert(l.payloads == vs.indices.filter(i => g.coordsAt(vs(i), 2).toSeq == l.key))
      assert(g.leaf(l.key).contains(l))
    }
    // inserting after a read re-sorts
    g.insert(Array(1.99, 0.0, 0.0), 300)
    assert(g.leaf(ArraySeq(3, 0, 0)).get.payloads.last == 300)
  }

  test("inner-level boxes nest exactly on the leaf boxes") {
    // the level-l cell of a vector is its leaf shifted, and the level-l box
    // edges are the edges of the codes the cell spans
    val rng = new Random(4)
    for (m <- Seq(1, 2, 6, 16); extent <- Seq(2.0 + 1e-6, 1.0 / 3, 7.3)) {
      val g = new HierarchicalGrid(1, m, extent)
      val wv = GridGeometry.codeWidth(extent)
      (1 to 200).foreach { _ =>
        val x = Array(rng.nextDouble() * extent)
        val c = g.coordsAt(x, m)(0)
        (1 to m).foreach { l =>
          val inner = c >> (m - l)
          val wl = extent / (1 << l)
          assert(g.coordsAt(x, l)(0) == inner, s"m=$m l=$l x=${x(0)}")
          assert(inner * wl == ((inner << (16 - l)) * wv), s"lo m=$m l=$l c=$c")
          assert((inner + 1) * wl == (((inner + 1) << (16 - l)) * wv), s"hi m=$m l=$l c=$c")
        }
      }
    }
  }

  test("level count of cells per dim is 2^level") {
    val g = new HierarchicalGrid(1, 3, extent = 2.0)
    // extremes map to cell 0 and 2^3 - 1
    assert(g.coordsAt(Array(0.0), 3)(0) == 0)
    assert(g.coordsAt(Array(1.999), 3)(0) == 7)
  }

  test("bad shapes rejected") {
    intercept[IllegalArgumentException] { new HierarchicalGrid(0, 2) }
    intercept[IllegalArgumentException] { new HierarchicalGrid(2, 0) }
    intercept[IllegalArgumentException] { new HierarchicalGrid(2, 17) }
    intercept[IllegalArgumentException] { new HierarchicalGrid(2, 31) }
    intercept[IllegalArgumentException] { new HierarchicalGrid(2, 2, extent = 0.0) }
    intercept[IllegalArgumentException] { new HierarchicalGrid(2, 2, extent = Double.NaN) }
  }
}
