package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{ColumnVectors, PexesoIndex, PivotSet, Verify}
import repro.embed.VectorOps

/** Distributed PEXESO as a Catalyst dataflow (DESIGN.md §2.4).
  *
  * The block-and-verify strategy mapped onto DataFrame operators:
  *
  *   1. repository vectors: `(col_id, row_id, vec)` rows; pivot mapping is
  *      a UDF over a broadcast pivot set; each vector keys to its grid
  *      cell at one level (`2^level` cells per pivot dimension);
  *   2. '''blocking''' = an equi-join on the cell id between the target
  *      vectors and the query vectors exploded to every cell overlapping
  *      their square query region `SQR(q', τ)` (Lemma 3 as join pruning);
  *   3. '''verification''' = Lemma 1 pivot filtering, then an exact
  *      distance predicate on the surviving pairs;
  *   4. '''joinability''' = `groupBy(col_id).agg(countDistinct(q_id))`
  *      compared to `T·|Q|`.
  *
  * Exact: returns the same joinable set as the in-memory core (asserted in
  * tests against NaiveSearch and `core.Pexeso`).
  */
object SparkPexeso {

  /** Repository columns → `(col_id, row_id, vec)` DataFrame. A repeated
    * column id is rejected: its rows would merge into one column.
    */
  def lakeToDF(spark: SparkSession, columns: Seq[ColumnVectors]): DataFrame = {
    import spark.implicits._
    PexesoIndex.sortedColumnIds(columns)
    columns.flatMap { c =>
      c.vectors.zipWithIndex.map { case (v, i) => (c.colId, i.toLong, v.toSeq) }
    }.toDF("col_id", "row_id", "vec")
  }

  /** Query vectors → `(q_id, vec)` DataFrame. */
  def queryToDF(spark: SparkSession, query: Array[Array[Double]]): DataFrame = {
    import spark.implicits._
    query.toSeq.zipWithIndex.map { case (v, i) => (i, v.toSeq) }.toDF("q_id", "vec")
  }

  /** Cell id of a mapped vector at `level` (2^level cells per dim). */
  private def cellOf(mapped: Seq[Double], level: Int, extent: Double): String = {
    val w = extent / (1 << level)
    mapped.map(x => math.min((1 << level) - 1, math.max(0, (x / w).toInt))).mkString(",")
  }

  /** All cells intersecting `SQR(mapped, tau)` at `level`. */
  private def cellsOverlapping(mapped: Seq[Double], tau: Double, level: Int, extent: Double): Seq[String] = {
    val cells = 1 << level
    val w = extent / cells
    val ranges = mapped.map { x =>
      val lo = math.min(cells - 1, math.max(0, ((x - tau) / w).toInt))
      val hi = math.min(cells - 1, math.max(0, ((x + tau) / w).toInt))
      lo to hi
    }
    ranges.foldLeft(Seq(Seq.empty[Int])) { (acc, r) =>
      acc.flatMap(prefix => r.map(prefix :+ _))
    }.map(_.mkString(","))
  }

  /** [[PexesoIndex.checkVector]] over the `vec` column of `df`, as one
    * Spark job; the first failure is rethrown on the driver.
    */
  private def checkVectors(df: DataFrame, dim: Int, what: String): Unit = {
    val spark = df.sparkSession
    import spark.implicits._
    val failures = df.select("vec").as[Array[Double]].flatMap { v =>
      try { PexesoIndex.checkVector(v, dim, what); None }
      catch { case e: IllegalArgumentException => Some(e.getMessage) }
    }
    failures.head(1).foreach(m => throw new IllegalArgumentException(m))
  }

  /** Per-column joinability counts: `(col_id, matched)` where `matched` is
    * the number of distinct query vectors with ≥1 match in the column.
    *
    * Before the search, throws `IllegalArgumentException` for an empty
    * query, a query or lake vector whose dimension is not the pivots', or
    * a non-finite value.
    */
  def matchCounts(
      lakeDf: DataFrame,
      queryDf: DataFrame,
      pivots: PivotSet,
      tau: Double,
      level: Int = 3,
      extent: Double = VectorOps.MaxUnitDistance + 1e-6,
  ): DataFrame = {
    require(pivots.numPivots > 0, "no pivots")
    val dim = pivots.pivots(0).length
    pivots.pivots.foreach(PexesoIndex.checkVector(_, dim, "pivot"))
    require(!queryDf.isEmpty, "empty query")
    checkVectors(queryDf, dim, "query vector")
    checkVectors(lakeDf, dim, "repository vector")

    val spark = lakeDf.sparkSession
    val bPivots = spark.sparkContext.broadcast(pivots)

    val mapVec = udf { (v: Seq[Double]) => bPivots.value.map(v.toArray).toSeq }
    val cellU = udf { (m: Seq[Double]) => cellOf(m, level, extent) }
    val qCellsU = udf { (m: Seq[Double]) => cellsOverlapping(m, tau, level, extent) }
    val pivotFiltered = udf { (qm: Seq[Double], xm: Seq[Double]) =>
      repro.core.PivotSpace.filteredByPivots(qm.toArray, xm.toArray, tau)
    }
    val distLe = udf { (a: Seq[Double], b: Seq[Double]) =>
      VectorOps.euclidean(a.toArray, b.toArray) <= tau
    }

    val targets = lakeDf
      .withColumn("mapped", mapVec(col("vec")))
      .withColumn("cell", cellU(col("mapped")))

    val queries = queryDf
      .withColumn("q_mapped", mapVec(col("vec")))
      .withColumn("cell", explode(qCellsU(col("q_mapped"))))
      .select(col("q_id"), col("vec").as("q_vec"), col("q_mapped"), col("cell"))

    queries
      .join(targets, "cell")                                   // blocking
      .filter(!pivotFiltered(col("q_mapped"), col("mapped")))  // Lemma 1
      .filter(distLe(col("q_vec"), col("vec")))                // exact verify
      .groupBy(col("col_id"))
      .agg(countDistinct(col("q_id")).as("matched"))
  }

  /** Full joinable-column search; returns the joinable `col_id` set. */
  def search(
      spark: SparkSession,
      columns: Seq[ColumnVectors],
      query: Array[Array[Double]],
      pivots: PivotSet,
      tau: Double,
      tFrac: Double,
      level: Int = 3,
  ): Set[Int] = {
    val tAbs = Verify.absThreshold(tFrac, query.length)
    matchCounts(lakeToDF(spark, columns), queryToDF(spark, query), pivots, tau, level)
      .filter(col("matched") >= tAbs)
      .collect()
      .map(_.getInt(0))
      .toSet
  }
}
