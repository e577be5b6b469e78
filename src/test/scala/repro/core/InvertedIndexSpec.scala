package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class InvertedIndexSpec extends AnyFunSuite {

  test("postings are the vectors sorted by leaf, then column, then input order") {
    val rng = new Random(1)
    for (trial <- 1 to 200) {
      val np = 1 + rng.nextInt(4)
      val nf = rng.nextInt(3)
      val levels = 1 + rng.nextInt(if (trial % 10 == 0) 16 else 4)
      val numCols = 1 + rng.nextInt(5)
      val n = 1 + rng.nextInt(60)
      // few distinct values, so leaves and (leaf, column) runs repeat
      val mapped = Array.fill(n)(Array.fill(np + nf)(rng.nextInt(5) * 0.4 + rng.nextDouble() * 0.01))
      val vecs = Array.tabulate(n)(p => Array(p.toDouble, -p.toDouble))
      val col = Array.fill(n)(rng.nextInt(numCols))
      val grid = new HierarchicalGrid(np, levels)
      val index = InvertedIndex.build(grid, Array.range(0, numCols).map(_ * 10), col, mapped, vecs)
      val leafOf = mapped.map(m => new HierarchicalGrid(np, levels).coordsAt(m, levels).toList)
      val order = (0 until n).sortBy(p => (leafOf(p), col(p), p))(
        Ordering.Tuple3(Ordering.Implicits.seqOrdering[List, Int], Ordering.Int, Ordering.Int))
      val what = s"trial $trial: |P|=$np filters=$nf m=$levels columns=$numCols n=$n"
      val keys = order.map(leafOf).distinct
      assert((0 until index.numCells).map(index.key(_).toList) == keys, what)
      assert(index.vectors.toSeq == order.flatMap(vecs(_)), what)
      // a posting's codes are the codes of its image on the grid pivots,
      // and their top m bits its cell's coordinates
      assert(index.codes.toSeq == order.flatMap(mapped(_).take(np).map(GridGeometry.code(_, index.codeWidth).toChar)),
        what)
      for (c <- 0 until index.numCells; p <- index.segStart(index.cellSeg(c)) until index.segStart(index.cellSeg(c + 1)))
        assert((0 until np).map(i => index.codes(p * np + i) >> (GridGeometry.CodeBits - levels)) == index.key(c), what)
      val segments = order.indices.filter(i => i == 0 || (leafOf(order(i)), col(order(i))) !=
        (leafOf(order(i - 1)), col(order(i - 1))))
      assert(index.segStart.toSeq == segments :+ n, what)
      assert(index.segCol.toSeq == segments.map(i => col(order(i))), what)
      assert(index.cellSeg.toSeq == keys.map(k => segments.indexWhere(i => leafOf(order(i)) == k)) :+ segments.length, what)
      keys.indices.foreach { c =>
        val members = (0 until n).filter(p => leafOf(p) == keys(c))
        (0 until nf).foreach { j =>
          val codes = members.map(p => GridGeometry.code(mapped(p)(np + j), index.codeWidth))
          assert(index.boxLo(c * nf + j).toInt == codes.min && index.boxHi(c * nf + j).toInt == codes.max, what)
        }
        assert(index.leaf(index.key(c)).contains(c) && index.find(index.key(c).toArray, 0) == c, what)
      }
      assert(grid.numLeaves == index.numCells, what)
    }
  }

  test("an index is built in an empty grid") {
    val grid = new HierarchicalGrid(1, 2)
    grid.insert(Array(0.5), 0)
    intercept[IllegalArgumentException](
      InvertedIndex.build(grid, Array(0), Array(0), Array(Array(0.5)), Array(Array(1.0))))
  }

  test("every posting's leaf coordinates bracket its pivot image") {
    // also one ulp below a grid line, where dividing by the cell width
    // rounds up into the next leaf
    val rng = new Random(6)
    for (levels <- Seq(1, 4, 6, 16); np <- Seq(1, 3)) {
      val w = HierarchicalGrid.DefaultExtent / (1 << levels)
      def value(): Double = rng.nextInt(3) match {
        case 0 => rng.nextDouble() * 2.0
        case 1 => math.max(0.0, math.nextDown(rng.nextInt(1 << levels) * w))
        case _ => rng.nextInt(1 << levels) * w
      }
      val mapped = Array.fill(300)(Array.fill(np)(value())) :+ Array.fill(np)(0.6250003125)
      val n = mapped.length
      // each vector is its input index, so posting p's input image is mapped(vectors(p))
      val index = InvertedIndex.build(new HierarchicalGrid(np, levels), Array(0), new Array[Int](n), mapped,
        Array.tabulate(n)(e => Array(e.toDouble)))
      for (c <- 0 until index.numCells; p <- index.segStart(index.cellSeg(c)) until index.segStart(index.cellSeg(c + 1));
           i <- 0 until np) {
        val (k, x, code) = (index.key(c)(i), mapped(index.vectors(p).toInt)(i), index.codes(p * np + i))
        assert(k * w <= x && x <= (k + 1) * w, s"m=$levels |P|=$np: $x is outside leaf $k")
        assert(code == GridGeometry.code(x, index.codeWidth) && k == code >> (GridGeometry.CodeBits - levels),
          s"m=$levels |P|=$np: $x has code ${code.toInt} in leaf $k")
      }
    }
  }

  test("a filter code brackets its distance as computed doubles, the extent taking the last code") {
    val rng = new Random(5)
    for (extent <- Seq(2.0 + 1e-6, 1.0 / 3, 7.3)) {
      val w = GridGeometry.codeWidth(extent)
      assert(GridGeometry.code(extent, w) == GridGeometry.Codes - 1)
      assert(GridGeometry.code(0.0, w) == 0)
      (1 to 2000).foreach { t =>
        val onLine = rng.nextInt(GridGeometry.Codes + 1) * w
        val d = math.min(extent, t % 4 match {
          case 0 => onLine
          case 1 => math.nextUp(onLine)
          case 2 => math.max(0.0, math.nextDown(onLine))
          case _ => rng.nextDouble() * extent
        })
        val c = GridGeometry.code(d, w)
        assert(c >= 0 && c < GridGeometry.Codes && c * w <= d && d <= (c + 1) * w, s"d=$d c=$c extent=$extent")
        assert(c == GridGeometry.Codes - 1 || (c + 1) * w > d, s"d=$d: code $c is not the greatest")
      }
    }
  }
}
