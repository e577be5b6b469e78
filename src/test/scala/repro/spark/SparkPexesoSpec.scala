package repro.spark

import repro.{SparkSpec, TestData}
import repro.baselines.NaiveSearch
import repro.core.{ColumnVectors, PexesoIndex, PivotSelection, PivotSet}

class SparkPexesoSpec extends SparkSpec {

  test("distributed search equals the brute-force reference") {
    for (seed <- 1L to 3L) {
      val (cols, query) = TestData.searchInstance(seed, nCols = 10, colSize = 12, qSize = 8)
      val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 3)
      for (tau <- Seq(0.2, 0.5); t <- Seq(0.3, 0.6)) {
        val got = SparkPexeso.search(spark, cols, query, pivots, tau, t)
        val want = NaiveSearch.search(cols, query, tau, t).joinable
        assert(got == want, s"seed=$seed tau=$tau T=$t")
      }
    }
  }

  test("distributed search equals the in-memory core index") {
    val (cols, query) = TestData.searchInstance(5, nCols = 12, colSize = 15, qSize = 10)
    val index = PexesoIndex.build(cols, 3, 3)
    val pivots = index.pivots
    val got = SparkPexeso.search(spark, cols, query, pivots, 0.4, 0.5)
    assert(got == index.search(query, 0.4, 0.5).joinable)
  }

  test("matchCounts returns exact distinct-match counts per column") {
    val (cols, query) = TestData.searchInstance(6, nCols = 8, colSize = 10, qSize = 6)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    val tau = 0.4
    val counts = SparkPexeso
      .matchCounts(SparkPexeso.lakeToDF(spark, cols), SparkPexeso.queryToDF(spark, query), pivots, tau)
      .collect()
      .map(r => r.getInt(0) -> r.getLong(1))
      .toMap
    cols.foreach { c =>
      val want = query.count(q =>
        c.vectors.exists(v => repro.embed.VectorOps.euclidean(q, v) <= tau)).toLong
      assert(counts.getOrElse(c.colId, 0L) == want, s"col=${c.colId}")
    }
  }

  test("blocking level does not affect the result (exactness across levels)") {
    val (cols, query) = TestData.searchInstance(7, nCols = 8, colSize = 10, qSize = 6)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    val want = NaiveSearch.search(cols, query, 0.4, 0.5).joinable
    for (level <- 1 to 4) {
      assert(SparkPexeso.search(spark, cols, query, pivots, 0.4, 0.5, level) == want,
        s"level=$level")
    }
  }

  test("lakeToDF shape") {
    val (cols, _) = TestData.searchInstance(8, nCols = 3, colSize = 4)
    val df = SparkPexeso.lakeToDF(spark, cols)
    assert(df.columns.toSeq == Seq("col_id", "row_id", "vec"))
    assert(df.count() == 12)
  }

  private def rejected(f: => Any): Unit = { intercept[IllegalArgumentException](f); () }

  test("search rejects an empty query") {
    val (cols, _) = TestData.searchInstance(9, nCols = 4, colSize = 5)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    rejected(SparkPexeso.search(spark, cols, Array.empty[Array[Double]], pivots, 0.4, 0.5))
  }

  test("search rejects a dimension that differs between query, lake and pivots") {
    val (cols, query) = TestData.searchInstance(10, nCols = 4, colSize = 5, qSize = 3)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    val dim = query(0).length
    rejected(SparkPexeso.search(spark, cols, query :+ Array.fill(dim + 1)(0.1), pivots, 0.4, 0.5))
    val oddLake = cols :+ ColumnVectors(cols.size, "odd", Array(Array.fill(dim - 1)(0.1)))
    rejected(SparkPexeso.search(spark, oddLake, query, pivots, 0.4, 0.5))
    val oddPivots = PivotSet(pivots.pivots.map(_ :+ 0.0))
    rejected(SparkPexeso.search(spark, cols, query, oddPivots, 0.4, 0.5))
  }

  test("search and matchCounts reject a non-finite value") {
    val (cols, query) = TestData.searchInstance(11, nCols = 4, colSize = 5, qSize = 3)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    val q = query.map(_.clone()); q(1)(0) = Double.NaN
    rejected(SparkPexeso.search(spark, cols, q, pivots, 0.4, 0.5))
    val v = query(0).clone(); v(2) = Double.PositiveInfinity
    val lake = cols :+ ColumnVectors(cols.size, "inf", Array(v))
    rejected(SparkPexeso.matchCounts(
      SparkPexeso.lakeToDF(spark, lake), SparkPexeso.queryToDF(spark, query), pivots, 0.4))
  }

  test("search rejects a repeated column id") {
    val (cols, query) = TestData.searchInstance(12, nCols = 4, colSize = 5, qSize = 3)
    val pivots = PivotSelection.pcaPivots(cols.flatMap(_.vectors), 2)
    val twice = cols :+ cols(0).copy(name = "again")
    val e = intercept[IllegalArgumentException](SparkPexeso.search(spark, twice, query, pivots, 0.4, 0.5))
    assert(e.getMessage.contains(s"column id ${cols(0).colId}"), e.getMessage)
  }
}
