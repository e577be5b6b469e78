package repro.partition

import java.io.IOException
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.file.{Files, Path}
import java.util.zip.CRC32C
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.TestData
import repro.baselines.NaiveSearch
import repro.core.{IndexFormat, VerifyMode}

class OutOfCoreSpec extends AnyFunSuite {

  test("spill + load + partitioned search equals the in-memory exact result") {
    val (cols, query) = TestData.searchInstance(seed = 90, nCols = 16, colSize = 15)
    val assign = Partitioners.random(cols, 4)
    val parts = Partitioners.split(cols, assign)
    val dir = Files.createTempDirectory("pexeso-ooc")
    try {
      val spilled = OutOfCore.buildAndSpill(parts, numPivots = 3, levels = 3, dir)
      assert(spilled.size == parts.size)
      val got = OutOfCore.search(spilled, Seq(query), 0.4, 0.5).perQuery.head.joinable
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
        OutOfCore.buildAndSpill(byRandom, 2, 2, dir.resolve("r")), Seq(query), 0.4, 0.5).perQuery.head.joinable
      val b = OutOfCore.search(
        OutOfCore.buildAndSpill(byJsd, 2, 2, dir.resolve("j")), Seq(query), 0.4, 0.5).perQuery.head.joinable
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
      val got = OutOfCore.search(spilled, Seq(query), 0.4, 0.5, VerifyMode.PexesoH).perQuery.head.joinable
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
      val batch = OutOfCore.search(spilled, Seq(query), 0.4, 0.5)
      val r = batch.perQuery.head
      assert(batch.loadNanos > 0)
      assert(r.totalNanos == r.blockNanos + r.verifyNanos)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("a query batch gives each query the exact answer and the per-partition counter sums") {
    val rng = new Random(100)
    val cols = TestData.clusteredColumns(rng, 16, 12, 8, nClusters = 4, jitter = 0.12)
    val queries = Seq.fill(4)(TestData.clusteredQuery(rng, cols.map(_.vectors(0)), 8, 0.12))
    val dir = Files.createTempDirectory("pexeso-ooc-batch")
    try {
      val spilled = OutOfCore.buildAndSpill(Partitioners.split(cols, Partitioners.random(cols, 3)), 3, 3, dir)
      val batch = OutOfCore.search(spilled, queries, 0.4, 0.5)
      assert(batch.perQuery.size == queries.size)
      val indexes = spilled.map(OutOfCore.load)
      queries.zip(batch.perQuery).foreach { case (q, got) =>
        assert(got.joinable == NaiveSearch.search(cols, q, 0.4, 0.5).joinable)
        val parts = indexes.map(_.search(q, 0.4, 0.5))
        assert(got.distanceComputations == parts.map(_.distanceComputations).sum)
        assert(got.candidatePairs == parts.map(_.candidatePairs).sum)
        assert(got.matchingPairs == parts.map(_.matchingPairs).sum)
      }
      assert(batch.perQuery.exists(_.joinable.nonEmpty))
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  test("a spill leaves only the finished index files") {
    val (cols, _) = TestData.searchInstance(seed = 95)
    val dir = Files.createTempDirectory("pexeso-ooc6")
    try {
      val spilled = OutOfCore.buildAndSpill(Partitioners.split(cols, Partitioners.random(cols, 3)), 2, 2, dir)
      assert(dir.toFile.list().toSet == spilled.map(_.path.getFileName.toString).toSet)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  /** Spill one small index, change its bytes with `edit`, and return the
    * message of the `IOException` that loading it throws.
    */
  private def loadFailure(seed: Int)(edit: Array[Byte] => Array[Byte]): (Path, String) = {
    val rng = new Random(seed)
    val dir = Files.createTempDirectory("pexeso-ooc-bad")
    try {
      val s = OutOfCore.buildAndSpill(Map(0 -> TestData.clusteredColumns(rng, 4, 8, 6)), 2, 2, dir).head
      Files.write(s.path, edit(Files.readAllBytes(s.path)))
      val e = intercept[IOException](OutOfCore.load(s))
      assert(e.getMessage.contains(s.path.toString), e.getMessage)
      (s.path, e.getMessage)
    } finally {
      dir.toFile.listFiles().foreach(_.delete()); Files.deleteIfExists(dir)
    }
  }

  private def withInt(bytes: Array[Byte], at: Int, f: Int => Int): Array[Byte] = {
    val b = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    b.putInt(at, f(b.getInt(at)))
    bytes
  }

  test("load rejects a file truncated by one byte") {
    val (_, msg) = loadFailure(96)(b => b.dropRight(1))
    assert(msg.contains("size"), msg)
  }

  test("load rejects a file with one body byte flipped") {
    val (_, msg) = loadFailure(97) { b =>
      val at = IndexFormat.HeaderBytes + (b.length - IndexFormat.HeaderBytes) / 2
      b(at) = (b(at) ^ 0x10).toByte
      b
    }
    assert(msg.contains("checksum"), msg)
  }

  test("load rejects a file with a wrong magic") {
    val (_, msg) = loadFailure(98)(b => withInt(b, 0, _ + 1))
    assert(msg.contains("magic"), msg)
  }

  test("load rejects a file of the next format version") {
    val (_, msg) = loadFailure(99)(b => withInt(b, 4, _ + 1))
    assert(msg.contains("version " + (IndexFormat.Version + 1)), msg)
  }

  test("load rejects a version-2 file, which has no filter pivots") {
    val (_, msg) = loadFailure(105)(b => withInt(b, 4, _ => 2))
    assert(msg.contains("unsupported format version 2"), msg)
  }

  test("load rejects a version-3 file, whose leaf coordinates came from a division, even with a valid checksum") {
    val (_, msg) = loadFailure(110)(b => withChecksum(withInt(b, 4, _ => 3)))
    assert(msg.contains("unsupported format version 3"), msg)
  }

  test("load rejects a version-4 file, whose postings keep doubles, even with a valid checksum") {
    val (_, msg) = loadFailure(115)(b => withChecksum(withInt(b, 4, _ => 4)))
    assert(msg.contains("unsupported format version 4"), msg)
  }

  /** `bytes` with the trailing checksum recomputed. */
  private def withChecksum(bytes: Array[Byte]): Array[Byte] = {
    val crc = new CRC32C
    crc.update(bytes, 0, bytes.length - 4)
    withInt(bytes, bytes.length - 4, _ => crc.getValue.toInt)
  }

  test("load rejects a header of more than 30 levels, even with a valid checksum") {
    val (_, msg) = loadFailure(101)(b => withChecksum(withInt(b, 16, _ => 31)))
    assert(msg.contains("invalid header counts") && msg.contains("m=31"), msg)
  }

  test("load rejects a header of 17 levels, even with a valid checksum") {
    // a leaf coordinate is a prefix of a 16-bit code
    val (_, msg) = loadFailure(111)(b => withChecksum(withInt(b, 16, _ => 17)))
    assert(msg.contains("invalid header counts") && msg.contains("m=17"), msg)
  }

  test("load rejects an extent other than the default, even with a valid checksum") {
    // the boxes of another extent would not hold their vectors
    for ((extent, seed) <- Seq(Double.PositiveInfinity, 4.0, Double.NaN).zip(112 to 114)) {
      val (_, msg) = loadFailure(seed) { b =>
        ByteBuffer.wrap(b).order(ByteOrder.LITTLE_ENDIAN).putDouble(40, extent)
        withChecksum(b)
      }
      assert(msg.contains(s"extent $extent"), msg)
    }
  }

  /** Byte offset of int `i` of `cellCoords` in an index file, and its
    * |P|, m and leaf cell count.
    */
  private def cellCoordAt(bytes: Array[Byte], i: Int): (Int, Int, Int, Int) = {
    val h = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    val (dim, np, levels, cols, cells, npv) =
      (h.getInt(8), h.getInt(12), h.getInt(16), h.getInt(20), h.getInt(24), h.getInt(36))
    (IndexFormat.HeaderBytes + 8 * npv * dim + 4 * cols + 4 * i, np, levels, cells)
  }

  test("load rejects two swapped leaf cells, even with a valid checksum") {
    val (_, msg) = loadFailure(103) { b =>
      val (at, np, _, cells) = cellCoordAt(b, 0)
      assert(cells >= 2)
      val first = b.slice(at, at + 4 * np)
      System.arraycopy(b, at + 4 * np, b, at, 4 * np)
      System.arraycopy(first, 0, b, at + 4 * np, 4 * np)
      withChecksum(b)
    }
    assert(msg.contains("leaf cells 0 and 1 are not in strictly increasing order"), msg)
  }

  test("load rejects a leaf coordinate of 2^m, even with a valid checksum") {
    val (_, msg) = loadFailure(104) { b =>
      val (_, np, levels, cells) = cellCoordAt(b, 0)
      val (last, _, _, _) = cellCoordAt(b, cells * np - 1)
      withChecksum(withInt(b, last, _ => 1 << levels))
    }
    assert(msg.contains("bad leaf cells") && msg.contains("coordinate 4 at pivot 1, outside [0, 4)"), msg)
  }

  test("load rejects a filter box whose least code is above its greatest, even with a valid checksum") {
    val (_, msg) = loadFailure(106) { b =>
      val h = ByteBuffer.wrap(b).order(ByteOrder.LITTLE_ENDIAN)
      val (np, cells, segs, npv) = (h.getInt(12), h.getInt(24), h.getInt(28), h.getInt(36))
      assert(npv > np)
      // boxLo follows segStart, boxHi follows boxLo; leaf 0's first filter pivot
      val (lo0, _, _, _) = cellCoordAt(b, cells * np + (cells + 1) + segs + (segs + 1))
      val hi = h.getChar(lo0 + 2 * cells * (npv - np))
      assert(hi < Char.MaxValue) // unit vectors lie below the extent
      h.putChar(lo0, (hi + 1).toChar)
      withChecksum(b)
    }
    assert(msg.contains("bad filter boxes") && msg.contains("leaf cell 0 has box") &&
      msg.contains("least code above greatest"), msg)
  }

  /** Byte offsets of `cellSeg(0)`, `segCol(0)` and `segStart(0)` in an
    * index file, which follow `cellCoords`, and its leaf cell count.
    */
  private def segmentArraysAt(bytes: Array[Byte]): (Int, Int, Int, Int) = {
    val h = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    val (np, cells, segs) = (h.getInt(12), h.getInt(24), h.getInt(28))
    val (cellSeg, _, _, _) = cellCoordAt(bytes, cells * np)
    (cellSeg, cellSeg + 4 * (cells + 1), cellSeg + 4 * (cells + 1 + segs), cells)
  }

  test("load rejects a leaf cell without segments, even with a valid checksum") {
    val (_, msg) = loadFailure(107) { b =>
      val (cellSeg, _, _, cells) = segmentArraysAt(b)
      assert(cells >= 2)
      withChecksum(withInt(b, cellSeg + 4, _ => 0))
    }
    assert(msg.contains("bad segments") && msg.contains("cellSeg(1) = 0 is not above cellSeg(0) = 0"), msg)
  }

  test("load rejects segment starts that decrease, even with a valid checksum") {
    val (_, msg) = loadFailure(108) { b =>
      val (_, segCol, segStart, _) = segmentArraysAt(b)
      assert(segStart - segCol >= 12) // at least 3 segments
      val h = ByteBuffer.wrap(b).order(ByteOrder.LITTLE_ENDIAN)
      withChecksum(withInt(b, segStart + 4, _ => h.getInt(segStart + 8) + 1))
    }
    assert(msg.contains("bad segments") && msg.contains("segStart(2) = ") &&
      msg.contains("is not above segStart(1) = "), msg)
  }

  test("load rejects a segment column beyond the column count, even with a valid checksum") {
    val (_, msg) = loadFailure(109) { b =>
      val (_, segCol, _, _) = segmentArraysAt(b)
      withChecksum(withInt(b, segCol, _ => ByteBuffer.wrap(b).order(ByteOrder.LITTLE_ENDIAN).getInt(20)))
    }
    assert(msg.contains("bad segments") && msg.contains("segment 0 has column 4, outside [0, 4)"), msg)
  }

  test("search rejects a bad tau or T before it loads a partition") {
    val (_, query) = TestData.searchInstance(seed = 102)
    val missing = Seq(OutOfCore.SpilledIndex(0, Files.createTempDirectory("pexeso-ooc7").resolve("none.bin"), 1))
    try {
      for ((tau, t) <- Seq((Double.NaN, 0.5), (-0.1, 0.5), (0.4, Double.NaN), (0.4, 0.0), (0.4, -1.0), (0.4, 1.5)))
        intercept[IllegalArgumentException](OutOfCore.search(missing, Seq(query), tau, t))
    } finally Files.deleteIfExists(missing.head.path.getParent)
  }
}
