package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.baselines.NaiveSearch

/** Inputs outside the exactness contract fail at the API boundary of
  * `PexesoIndex.build` and `search` instead of giving wrong answers.
  */
class PexesoInputSpec extends AnyFunSuite {

  private val (cols, query) = TestData.searchInstance(seed = 40)
  private lazy val index = PexesoIndex.build(cols, 3, 3)

  private def withVector(v: Array[Double]): IndexedSeq[ColumnVectors] =
    cols :+ ColumnVectors(cols.size, "odd", Array(v))

  private def rejected(f: => Any): Unit = { intercept[IllegalArgumentException](f); () }

  test("build rejects vectors of differing dimension") {
    rejected(PexesoIndex.build(withVector(Array.fill(query(0).length + 1)(0.1)), 3, 3))
  }

  test("build rejects a non-finite value") {
    val v = query(0).clone(); v(1) = Double.NaN
    rejected(PexesoIndex.build(withVector(v), 3, 3))
    val w = query(0).clone(); w(0) = Double.PositiveInfinity
    rejected(PexesoIndex.build(withVector(w), 3, 3))
  }

  test("build rejects a pivot distance beyond the grid extent") {
    // norm 5: its distance to any unit-vector pivot exceeds 2
    rejected(PexesoIndex.build(withVector(query(0).map(_ * 5)), 3, 3))
  }

  test("search rejects an empty query") {
    rejected(index.search(Array.empty[Array[Double]], 0.4, 0.5))
  }

  test("search rejects a query of another dimension") {
    rejected(index.search(Array(Array.fill(query(0).length - 1)(0.1)), 0.4, 0.5))
  }

  test("search rejects a non-finite query value") {
    val q = query.map(_.clone()); q(2)(0) = Double.NaN
    rejected(index.search(q, 0.4, 0.5))
    q(2)(0) = Double.NegativeInfinity
    rejected(index.search(q, 0.4, 0.5))
  }

  test("search rejects a query whose pivot distance is beyond the grid extent") {
    val q = query.map(_.clone()); q(0) = q(0).map(_ * 5)
    rejected(index.search(q, 0.4, 0.5))
  }

  test("build rejects a repeated column id") {
    // two columns with id 7 would merge into one dense column, which
    // holds both query vectors and so would join at T = 1
    val q1 = Array(1.0, 0.0, 0.0, 0.0)
    val q2 = Array(0.0, 1.0, 0.0, 0.0)
    val twice = IndexedSeq(ColumnVectors(7, "a", Array(q1)), ColumnVectors(7, "b", Array(q2)))
    val e = intercept[IllegalArgumentException](PexesoIndex.build(twice, 2, 2))
    assert(e.getMessage.contains("column id 7"), e.getMessage)
  }

  test("build accepts 16 grid levels and rejects more") {
    // a leaf coordinate is a prefix of a 16-bit code
    val want = NaiveSearch.search(cols, query, 0.3, 0.3).joinable
    assert(want.nonEmpty && want.size < cols.size)
    assert(PexesoIndex.build(cols, 2, 16).search(query, 0.3, 0.3).joinable == want)
    for (m <- Seq(17, 31)) rejected(PexesoIndex.build(cols, 2, m))
  }

  test("search rejects a tau that is NaN or negative and a T outside (0, 1]") {
    for (tau <- Seq(Double.NaN, -0.1, Double.NegativeInfinity)) rejected(index.search(query, tau, 0.5))
    for (t <- Seq(Double.NaN, 0.0, -1.0, 1.5)) rejected(index.search(query, 0.4, t))
    // the edges stay valid: τ = 0, τ = +∞ and T = 1
    for (tau <- Seq(0.0, Double.PositiveInfinity))
      assert(index.search(query, tau, 1.0).joinable == NaiveSearch.search(cols, query, tau, 1.0).joinable)
    assert(index.search(query, Double.PositiveInfinity, 1.0).joinable.size == cols.size)
  }
}
