#!/usr/bin/env python3
"""Build the program and the benchmark from source, then run one workload.

    python3 joinbench/run.py --workload open-deep --seed 1 --seconds 40 --trace 0
    python3 joinbench/run.py --selftest

Run from the root of the repository. The Scala sources of the program
(src/main/scala) and of the benchmark (joinbench/src, joinbench/trace) are
compiled into joinbench/.build with the Scala compiler that ships with the
Spark distribution (SPARK_HOME, or the one whose spark-submit is on the
PATH); a unit is rebuilt only when its sources change. The last line of
standard output is the run's JSON result.
"""
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / ".build"
PROGRAM_SRC = ROOT / "src" / "main" / "scala"

# Pinned for both sides of a comparison: a fixed heap, and a collector whose
# work runs on the benchmark's own thread instead of competing for cores.
JVM_FLAGS = ["-XX:+UseSerialGC", "-Xms2g", "-Xmx2g", "-XX:-UsePerfData"]
# The traced run also turns off escape analysis, so the bytes a layer
# allocates are those its code asks for, not what one JIT compilation
# happened to remove; with it on they differ between JVMs by up to ~20%.
TRACE_JVM_FLAGS = ["-XX:-DoEscapeAnalysis"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"joinbench: {msg}", file=sys.stderr)
    sys.exit(code)


def spark_jars():
    """The Spark distribution's jars: part of the program compiles against
    them, and they hold the Scala 2.13 compiler and library."""
    home = os.environ.get("SPARK_HOME")
    submit = shutil.which("spark-submit")
    if not home and submit:
        home = Path(submit).resolve().parent.parent
    if not home or not (Path(home) / "jars").is_dir():
        fail("no Spark distribution: set SPARK_HOME or put spark-submit on the PATH")
    return Path(home) / "jars"


def scala_jar(name):
    jars = sorted(spark_jars().glob(f"scala-{name}-2.13.*.jar"))
    if not jars:
        fail(f"no scala-{name} 2.13 jar in {spark_jars()}")
    return jars[-1]


def sources(d):
    return sorted(d.rglob("*.scala")) if d.is_dir() else []


def compile_unit(name, srcs, classpath):
    """Compile `srcs` into joinbench/.build/<name> unless its stamp matches.

    Returns the class directory, or None if compilation failed (the log is
    kept at joinbench/.build/<name>.log).
    """
    h = hashlib.sha256()
    for c in classpath:
        h.update(str(c).encode())
        dep_stamp = Path(str(c) + ".stamp")
        if dep_stamp.exists():
            h.update(dep_stamp.read_bytes())
    for s in srcs:
        h.update(str(s.relative_to(ROOT)).encode())
        h.update(s.read_bytes())
    digest = h.hexdigest()
    out = BUILD / name
    stamp = BUILD / f"{name}.stamp"
    if out.is_dir() and stamp.exists() and stamp.read_text() == digest:
        return out
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = BUILD / f"{name}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    compiler_cp = os.pathsep.join(str(scala_jar(n)) for n in ("compiler", "library", "reflect"))
    cmd = ["java", "-XX:-UsePerfData", "-Xss16m", "-Xmx1g", "-cp", compiler_cp,
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn",
           "-classpath", os.pathsep.join(str(c) for c in classpath),
           "-d", str(tmp)] + [str(s) for s in srcs]
    print(f"joinbench: compiling {name} ({len(srcs)} files)", file=sys.stderr)
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    (BUILD / f"{name}.log").write_bytes(res.stdout)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        sys.stderr.write(res.stdout.decode(errors="replace")[-4000:])
        return None
    shutil.rmtree(out, ignore_errors=True)
    tmp.rename(out)
    stamp.write_text(digest)
    return out


def build():
    """Return the run classpath: program, benchmark and, if it compiles, the trace."""
    if not sources(PROGRAM_SRC):
        fail(f"no program sources under {PROGRAM_SRC}; run from a checkout of the repository")
    program = compile_unit("program", sources(PROGRAM_SRC), [spark_jars() / "*"])
    if program is None:
        fail("the program does not compile", 4)
    bench = compile_unit("bench", sources(BENCH / "src"), [program])
    if bench is None:
        fail("the benchmark does not compile", 4)
    trace = compile_unit("trace", sources(BENCH / "trace"), [program, bench])
    if trace is None:
        print("joinbench: the traced run does not compile; only untraced runs work", file=sys.stderr)
    return [scala_jar("library"), program, bench] + ([trace] if trace else [])


def run_jvm(classpath, args):
    work = BENCH / ".work" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    traced = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    cmd = (["java"] + JVM_FLAGS + (TRACE_JVM_FLAGS if traced else []) + [f"-Djava.io.tmpdir={work / 'tmp'}",
           "-cp", os.pathsep.join(str(c) for c in classpath), "joinbench.Main"] + args)
    if args != ["--selftest"]:
        cmd += ["--work-dir", str(work / "data"), "--out-dir", str(BENCH / "out")]
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"joinbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(work, ignore_errors=True)


def main(argv):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    classpath = build()
    sys.exit(run_jvm(classpath, argv))


if __name__ == "__main__":
    main(sys.argv[1:])
