package repro.partition

import java.nio.file.Files
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.baselines.NaiveSearch
import repro.core.VerifyMode

class OutOfCoreSpec extends AnyFunSuite {

  test("spill + load + partitioned search equals the in-memory exact result") {
    val (cols, query) = TestData.searchInstance(seed = 90, nCols = 16, colSize = 15)
    val assign = Partitioners.random(cols, 4)
    val parts = Partitioners.split(cols, assign)
    val dir = Files.createTempDirectory("pexeso-ooc")
    try {
      val spilled = OutOfCore.buildAndSpill(parts, numPivots = 3, levels = 3, dir)
      assert(spilled.size == parts.size)
      val got = OutOfCore.search(spilled, query, 0.4, 0.5).joinable
      val want = NaiveSearch.search(cols, query, 0.4, 0.5).joinable
      assert(got == want)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("partitioning choice does not change the exact result") {
    val (cols, query) = TestData.searchInstance(seed = 91, nCols = 12, colSize = 12)
    val dir = Files.createTempDirectory("pexeso-ooc2")
    try {
      val byRandom = Partitioners.split(cols, Partitioners.random(cols, 3))
      val byJsd    = Partitioners.split(cols, JsdClustering.cluster(cols, 3))
      val a = OutOfCore.search(
        OutOfCore.buildAndSpill(byRandom, 2, 2, dir.resolve("r")), query, 0.4, 0.5).joinable
      val b = OutOfCore.search(
        OutOfCore.buildAndSpill(byJsd, 2, 2, dir.resolve("j")), query, 0.4, 0.5).joinable
      assert(a == b)
    } finally {
      def rm(f: java.io.File): Unit = {
        if (f.isDirectory) f.listFiles().foreach(rm)
        f.delete(); ()
      }
      rm(dir.toFile)
    }
  }

  test("search works in PEXESO-H mode too") {
    val (cols, query) = TestData.searchInstance(seed = 92)
    val dir = Files.createTempDirectory("pexeso-ooc3")
    try {
      val parts = Partitioners.split(cols, Partitioners.random(cols, 2))
      val spilled = OutOfCore.buildAndSpill(parts, 2, 2, dir)
      val got = OutOfCore.search(spilled, query, 0.4, 0.5, VerifyMode.PexesoH).joinable
      assert(got == NaiveSearch.search(cols, query, 0.4, 0.5).joinable)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("load restores a working index") {
    val rng = new Random(93)
    val cols = TestData.clusteredColumns(rng, 6, 10, 6)
    val dir = Files.createTempDirectory("pexeso-ooc4")
    try {
      val spilled = OutOfCore.buildAndSpill(Map(0 -> cols), 2, 2, dir)
      val idx = OutOfCore.load(spilled.head)
      assert(idx.numColumns == 6)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("a spilled search reports its load time on its own") {
    val (cols, query) = TestData.searchInstance(seed = 94)
    val dir = Files.createTempDirectory("pexeso-ooc5")
    try {
      val spilled = OutOfCore.buildAndSpill(Partitioners.split(cols, Partitioners.random(cols, 2)), 2, 2, dir)
      val r = OutOfCore.search(spilled, query, 0.4, 0.5)
      assert(r.loadNanos > 0)
      assert(r.totalNanos == r.blockNanos + r.verifyNanos + r.loadNanos)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }
}
