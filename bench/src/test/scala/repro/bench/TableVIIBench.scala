package repro.bench

import org.scalatest.funsuite.AnyFunSuite

/** Table VII — efficiency grid over T × τ for CTREE, EPT, PEXESO-H and
  * PEXESO on the in-memory corpora plus out-of-core LWDC.
  *
  * Shape claims asserted (the paper's, at mini scale): grid-blocked
  * methods beat CTREE everywhere and EPT on the in-memory corpora; search
  * time grows with τ; PEXESO's exact distance computations are far below
  * CTREE's and below PEXESO-H's.
  */
class TableVIIBench extends AnyFunSuite {

  private def ms(rows: Seq[Seq[String]], ds: String, t: String, tau: String, col: Int): Double = {
    val r = rows.find(r => r(0) == ds && r(1) == t && r(2) == tau).get
    val v = r(col)
    if (v == ">cap") Double.MaxValue else v.toDouble
  }

  test("Table VII: efficiency grids and distance-computation mechanism") {
    val open = TableVII.runInMemory("OPEN", BenchConfig.openMini,
      BenchConfig.OpenPivots, BenchConfig.OpenLevels)
    val swdc = TableVII.runInMemory("SWDC", BenchConfig.swdcMini,
      BenchConfig.SwdcPivots, BenchConfig.SwdcLevels)
    val lwdc = TableVII.runOutOfCore(BenchConfig.lwdcMini)
    val header = Seq("Dataset", "T", "tau", "CTREE(ms)", "EPT(ms)", "PEXESO-H(ms)", "PEXESO(ms)")
    val out = Fmt.table(header, open ++ swdc ++ lwdc) + "\n\n" +
      TableVII.distanceFooters.mkString("\n")
    Fmt.publish("tableVII", out)

    val all = open ++ swdc ++ lwdc
    // PEXESO (col 6) beats CTREE (col 3) on every grid cell of every corpus
    for (ds <- Seq("OPEN", "SWDC", "LWDC(ooc)"); t <- Seq("20%", "40%", "60%", "80%");
         tau <- Seq("2%", "4%", "6%", "8%")) {
      assert(ms(all, ds, t, tau, 6) < ms(all, ds, t, tau, 3),
        s"PEXESO must beat CTREE at $ds T=$t tau=$tau")
    }
    // PEXESO beats EPT (paper: 14-76x vs non-blocking). Individual ~100ms
    // cells are timing-noisy on a shared VM, so compare grid totals.
    for (ds <- Seq("OPEN", "SWDC")) {
      val cells = for (t <- Seq("20%", "40%", "60%", "80%");
                       tau <- Seq("2%", "4%", "6%", "8%")) yield (t, tau)
      val pexTotal = cells.map { case (t, tau) => ms(all, ds, t, tau, 6) }.sum
      val eptTotal = cells.map { case (t, tau) => ms(all, ds, t, tau, 4) }.sum
      assert(pexTotal < eptTotal, s"PEXESO grid total must beat EPT on $ds " +
        s"(pexeso=$pexTotal ept=$eptTotal)")
    }
    // search time grows with tau (paper Fig. 6)
    for (ds <- Seq("OPEN", "SWDC")) {
      assert(ms(all, ds, "60%", "2%", 6) < ms(all, ds, "60%", "8%", 6),
        s"search time must grow with tau on $ds")
    }
    // the mechanism (paper Fig. 7a): PEXESO computes fewer exact distances
    TableVII.distanceFooters.foreach { line =>
      val nums = "(CTREE|EPT|PEXESO-H|PEXESO)=(\\d+)".r
        .findAllMatchIn(line).map(m => m.group(1) -> m.group(2).toLong).toMap
      assert(nums("PEXESO") < nums("CTREE"), line)
      assert(nums("PEXESO") <= nums("PEXESO-H"), line)
    }
  }
}
