package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench._

/** spark-submit entrypoints, one per paper table.
  *
  * Example:
  *   spark-submit --class repro.jobs.TableVIIJob repro-jobs.jar
  */
object JobUtil {
  def sparkSession(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** Table III — dataset statistics. */
object TableIIIJob {
  def main(args: Array[String]): Unit =
    Fmt.publish("tableIII", TableIII.run())
}

/** Table IV — precision & recall of joinable table search. */
object TableIVJob {
  def main(args: Array[String]): Unit =
    Fmt.publish("tableIV", TableIV.run())
}

/** Table V — performance gain in ML tasks. */
object TableVJob {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.sparkSession("tableV")
    try Fmt.publish("tableV", TableV.run(spark))
    finally spark.stop()
  }
}

/** Table VI — parameter tuning (|P| × m sweep). */
object TableVIJob {
  def main(args: Array[String]): Unit =
    Fmt.publish("tableVI", TableVI.run())
}

/** Table VII — efficiency evaluation (incl. out-of-core LWDC). */
object TableVIIJob {
  def main(args: Array[String]): Unit =
    Fmt.publish("tableVII", TableVII.run())
}
