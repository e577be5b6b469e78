package joinbench

import java.nio.file.{Files, Paths}

/** Entry point:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *       --work-dir <dir> --out-dir <dir>`, or `Main --selftest`.
  *
  * Prints notes, then as the last line one JSON object with `correct`,
  * `attempted`, `failed` and `metrics`: the end-to-end metrics when
  * untraced, the per-layer metrics when traced.
  */
object Main {

  def main(args: Array[String]): Unit = {
    if (args.sameElements(Array("--selftest"))) { SelfTest.main(); return }
    val opts = parse(args)
    val w = Workload.byName(opts.workload)
    Files.createDirectories(opts.workDir)
    Files.createDirectories(opts.outDir)

    val t0 = System.nanoTime()
    val in = Inputs.generate(w, opts.seed)
    val t1 = System.nanoTime()
    in.oracle
    val t2 = System.nanoTime()
    println(f"inputs: ${in.repo.length} columns, ${in.numVectors} vectors of dim ${in.dim}, " +
      f"${in.queries.length} queries (${in.queries.map(_.length).sum} vectors); " +
      f"generated in ${(t1 - t0) / 1e9}%.1f s, oracle in ${(t2 - t1) / 1e9}%.1f s")
    println(s"inputs_sha256=${in.hash}")

    val run = if (opts.trace) tracedRun(in, opts) else new UntracedRun(in, opts)
    val report = try run.execute() finally Setup.deleteTree(opts.workDir)
    report.notes.foreach(println)
    println(report.json)
  }

  /** The traced run is compiled separately, against the program's layer
    * calls; load it by name so the untraced run does not depend on them.
    */
  private def tracedRun(in: Inputs, opts: Options): Run = {
    val cls = try Class.forName("joinbench.trace.TracedRun") catch {
      case _: ClassNotFoundException =>
        System.err.println("the traced run is not built: its layer calls no longer compile " +
          "against the program (see the trace build log)")
        sys.exit(3)
    }
    cls.getConstructor(classOf[Inputs], classOf[Options]).newInstance(in, opts).asInstanceOf[Run]
  }

  private def parse(args: Array[String]): Options = {
    def fail(msg: String): Nothing = {
      System.err.println(s"$msg\nusage: --workload <${Workload.all.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir> --out-dir <dir>")
      sys.exit(2)
    }
    if (args.length % 2 != 0) fail("options come in pairs")
    val kv = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def get(k: String): String = kv.getOrElse(k, fail(s"missing $k"))
    val known = Set("--workload", "--seed", "--seconds", "--trace", "--work-dir", "--out-dir")
    kv.keys.find(!known(_)).foreach(k => fail(s"unknown option $k"))
    val trace = get("--trace") match {
      case "0" => false
      case "1" => true
      case t   => fail(s"--trace must be 0 or 1, not $t")
    }
    val seconds = get("--seconds").toIntOption.filter(_ >= 1).getOrElse(fail("--seconds must be a positive integer"))
    val seed = get("--seed").toLongOption.getOrElse(fail("--seed must be an integer"))
    if (!Workload.all.exists(_.name == get("--workload"))) fail(s"unknown workload ${get("--workload")}")
    Options(get("--workload"), seed, seconds, trace, Paths.get(get("--work-dir")), Paths.get(get("--out-dir")))
  }
}
