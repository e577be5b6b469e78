package repro.core

import java.io.IOException
import java.nio.{ByteBuffer, ByteOrder}
import java.nio.channels.FileChannel
import java.nio.file.{Path, StandardOpenOption}
import java.util.zip.CRC32C

/** The binary format of a [[PexesoIndex]]: the out-of-core spill files
  * (paper Section IV).
  *
  * Little-endian throughout. A 56-byte header:
  *
  * {{{
  *   0  int    magic "PXSO"         28  int    segments
  *   4  int    version              32  int    postings
  *   8  int    dim                  36  int    |P_v| (all pivots)
  *  12  int    |P| (grid pivots)    40  double extent
  *  16  int    m (levels)           48  long   buildNanos
  *  20  int    columns
  *  24  int    leaf cells
  * }}}
  *
  * then the body, the index's flat arrays as raw primitives: pivots
  * (`|P_v|·dim` doubles, row-major, the grid's first), `colIds`,
  * `cellCoords`, `cellSeg`, `segCol`, `segStart` (ints), the leaves'
  * filter boxes `boxLo` and `boxHi` (`cells·(|P_v| − |P|)` 16-bit codes
  * each), the postings' `codes` (`postings·|P|` 16-bit codes), 0, 2, 4 or
  * 6 bytes of padding to an 8-byte boundary, and `vectors` (doubles).
  * Last comes the CRC32C of everything before it, header included.
  *
  * Since version 2 the leaf cells in `cellCoords` are sorted; version 3
  * adds the filter pivots and boxes; in version 4 a leaf coordinate is the
  * top m bits of its vectors' 16-bit codes (see [[HierarchicalGrid]]), so
  * m is at most 16; version 5 keeps a posting's pivot distances as codes,
  * not doubles. A read checks, in order, the magic, the version, that the
  * header counts are valid (m at most [[HierarchicalGrid.MaxLevels]],
  * |P_v| at least |P|), that the extent is
  * [[HierarchicalGrid.DefaultExtent]], that the file size is the one the
  * header implies, the checksum, that the leaf coordinates are strictly
  * increasing and each in `[0, 2^m)`, that `cellSeg` and `segStart` rise
  * strictly from 0 to the segment and posting counts and every `segCol` is
  * one of the columns, and that no box's least code is above its greatest;
  * a failure is an `IOException` naming the file and the check.
  */
object IndexFormat {

  /** "PXSO" in file byte order. */
  val Magic: Int = 0x4f535850
  val Version: Int = 5
  val HeaderBytes: Int = 56

  /** Arrays are copied and checksummed in slices of this many bytes, small
    * enough to stay in cache between the two passes.
    */
  private val SliceBytes = 1 << 18

  /** Bytes of an index with these header fields, or -1 if they are invalid. */
  private def sizeOf(dim: Int, np: Int, npv: Int, levels: Int, cols: Int, cells: Int, segs: Int, posts: Int): Long =
    if (dim < 1 || np < 1 || npv < np || levels < 1 || levels > HierarchicalGrid.MaxLevels ||
        cols < 0 || cells < 0 || segs < 0 || posts < 0 ||
        Seq(npv.toLong * dim, cells.toLong * np, cells.toLong * (npv - np), posts.toLong * np, posts.toLong * dim)
          .exists(_ > Int.MaxValue)) -1L
    else {
      val bytes = codedBytes(np, npv, cols, cells, segs, posts)
      HeaderBytes + 8L * npv * dim + bytes + padAfter(bytes) + 8L * posts * dim + 4L
    }

  /** Bytes between the pivots and the padding: the int arrays, then the
    * 16-bit codes of the two box arrays and of the postings.
    */
  private def codedBytes(np: Int, npv: Int, cols: Int, cells: Int, segs: Int, posts: Int): Long =
    4L * (cols.toLong + cells.toLong * np + (cells + 1L) + segs + (segs + 1L)) +
      2L * (2L * cells * (npv - np) + posts.toLong * np)

  private def padAfter(bytes: Long): Int = ((8 - bytes % 8) % 8).toInt

  // ---- write ----

  /** Write `index` to `path`, replacing any file there, and return once the
    * bytes are on disk.
    */
  def write(index: PexesoIndex, path: Path): Unit = {
    val ch = FileChannel.open(path, StandardOpenOption.CREATE, StandardOpenOption.WRITE,
      StandardOpenOption.TRUNCATE_EXISTING)
    try {
      val inv = index.inverted
      val out = new Writer(ch)
      val h = out.buf
      h.putInt(Magic).putInt(Version).putInt(inv.dim).putInt(inv.numPivots).putInt(inv.levels)
        .putInt(inv.numColumns).putInt(inv.numCells).putInt(inv.segCol.length).putInt(inv.segStart.last)
        .putInt(index.pivots.numPivots).putDouble(inv.extent).putLong(index.buildNanos)
      index.pivots.pivots.foreach(out.doubles)
      Seq(inv.colIds, inv.cellCoords, inv.cellSeg, inv.segCol, inv.segStart).foreach(out.ints)
      out.chars(inv.boxLo)
      out.chars(inv.boxHi)
      out.chars(inv.codes)
      out.chars(new Array[Char](padAfter(codedBytes(inv.numPivots, index.pivots.numPivots, inv.numColumns,
        inv.numCells, inv.segCol.length, inv.segStart.last)) / 2))
      out.doubles(inv.vectors)
      out.finish()
      ch.force(true)
    } finally ch.close()
  }

  /** Buffers writes to `ch` and checksums what passes through. */
  private final class Writer(ch: FileChannel) {
    val buf: ByteBuffer = ByteBuffer.allocateDirect(SliceBytes).order(ByteOrder.LITTLE_ENDIAN)
    private val crc = new CRC32C

    private def flush(): Unit = {
      buf.flip()
      crc.update(buf)
      buf.rewind()
      while (buf.hasRemaining) ch.write(buf)
      buf.clear()
    }

    def doubles(a: Array[Double]): Unit = {
      var i = 0
      while (i < a.length) {
        if (buf.remaining < 8) flush()
        val k = math.min(a.length - i, buf.remaining / 8)
        buf.asDoubleBuffer().put(a, i, k)
        buf.position(buf.position() + 8 * k)
        i += k
      }
    }

    def ints(a: Array[Int]): Unit = {
      var i = 0
      while (i < a.length) {
        if (buf.remaining < 4) flush()
        val k = math.min(a.length - i, buf.remaining / 4)
        buf.asIntBuffer().put(a, i, k)
        buf.position(buf.position() + 4 * k)
        i += k
      }
    }

    def chars(a: Array[Char]): Unit = {
      var i = 0
      while (i < a.length) {
        if (buf.remaining < 2) flush()
        val k = math.min(a.length - i, buf.remaining / 2)
        buf.asCharBuffer().put(a, i, k)
        buf.position(buf.position() + 2 * k)
        i += k
      }
    }

    def finish(): Unit = {
      flush()
      buf.putInt(crc.getValue.toInt)
      buf.flip()
      while (buf.hasRemaining) ch.write(buf)
    }
  }

  // ---- read ----

  /** Read the index in `path`, memory-mapped. */
  def read(path: Path): PexesoIndex = {
    val ch = FileChannel.open(path, StandardOpenOption.READ)
    try {
      val size = ch.size()
      val h = ByteBuffer.allocate(HeaderBytes).order(ByteOrder.LITTLE_ENDIAN)
      while (h.hasRemaining && ch.read(h, h.position().toLong) > 0) {}
      h.flip()
      def fail(check: String): Nothing = throw new IOException(s"$path: $check")
      val hex = (i: Int) => f"0x$i%08x"
      if (h.remaining < 4) fail(s"bad magic: $size bytes hold none (not a PEXESO index file)")
      if (h.getInt(0) != Magic) fail(s"bad magic ${hex(h.getInt(0))}, expected ${hex(Magic)} (not a PEXESO index file)")
      val version = if (h.remaining >= 8) h.getInt(4) else 0
      if (version != Version) fail(s"unsupported format version $version, this reader reads version $Version")
      if (h.remaining < HeaderBytes) fail(s"size $size bytes is shorter than the $HeaderBytes-byte header")
      val dim = h.getInt(8); val np = h.getInt(12); val levels = h.getInt(16)
      val cols = h.getInt(20); val cells = h.getInt(24); val segs = h.getInt(28); val posts = h.getInt(32)
      val npv = h.getInt(36)
      val implied = sizeOf(dim, np, npv, levels, cols, cells, segs, posts)
      if (implied < 0) fail(s"invalid header counts: dim=$dim |P|=$np |P_v|=$npv m=$levels columns=$cols " +
        s"cells=$cells segments=$segs postings=$posts")
      val extent = h.getDouble(40) // the codes were cut for the default, and other boxes would miss their vectors
      if (extent != HierarchicalGrid.DefaultExtent) fail(s"extent $extent, expected ${HierarchicalGrid.DefaultExtent}")
      if (size != implied) fail(s"size $size bytes, the header implies $implied")

      val src = new Mapped(ch, size)
      val in = new Reader(src, h)
      val pivots = Array.fill(npv)(in.doubles(dim))
      val colIds = in.ints(cols)
      val cellCoords = in.ints(cells * np)
      val cellSeg = in.ints(cells + 1)
      val segCol = in.ints(segs)
      val segStart = in.ints(segs + 1)
      val boxLo = in.chars(cells * (npv - np))
      val boxHi = in.chars(cells * (npv - np))
      val codes = in.chars(posts * np)
      in.chars(padAfter(codedBytes(np, npv, cols, cells, segs, posts)) / 2)
      val vectors = in.doubles(posts * dim)
      val stored = src(size - 4, 4).order(ByteOrder.LITTLE_ENDIAN).getInt(0)
      val computed = in.checksum
      if (stored != computed) fail(s"checksum mismatch: stored ${hex(stored)}, computed ${hex(computed)}")
      InvertedIndex.cellsProblem(cellCoords, np, levels).foreach(p => fail(s"bad leaf cells: $p"))
      InvertedIndex.segmentsProblem(cellSeg, segStart, segCol, cols, posts).foreach(p => fail(s"bad segments: $p"))
      InvertedIndex.boxesProblem(boxLo, boxHi, np, npv - np).foreach(p => fail(s"bad filter boxes: $p"))

      val inverted = new InvertedIndex(np, levels, extent, dim, colIds, cellCoords,
        cellSeg, segCol, segStart, npv - np, boxLo, boxHi, codes, vectors)
      new PexesoIndex(PivotSet(pivots), inverted, buildNanos = h.getLong(48))
    } finally ch.close()
  }

  /** A file mapped in windows of up to 1 GiB, so that indexes over 2 GiB,
    * which one mapping cannot hold, read too.
    */
  private final class Mapped(ch: FileChannel, size: Long) {
    private val WindowBytes = 1L << 30
    private var winStart = 0L
    private var win: ByteBuffer = ByteBuffer.allocate(0)

    /** Bytes `[off, off + len)` of the file. */
    def apply(off: Long, len: Int): ByteBuffer = {
      if (off < winStart || off + len > winStart + win.capacity) {
        winStart = off
        win = ch.map(FileChannel.MapMode.READ_ONLY, off, math.min(size - off, WindowBytes))
      }
      win.slice((off - winStart).toInt, len)
    }
  }

  /** Reads the body in order, checksumming the header and every byte read. */
  private final class Reader(src: Mapped, header: ByteBuffer) {
    private val crc = new CRC32C
    crc.update(header.duplicate())
    private var off = HeaderBytes.toLong

    def checksum: Int = crc.getValue.toInt

    private def next(bytes: Int): ByteBuffer = {
      val b = src(off, bytes).order(ByteOrder.LITTLE_ENDIAN)
      crc.update(b)
      off += bytes
      b.rewind()
    }

    def doubles(n: Int): Array[Double] = {
      val out = new Array[Double](n)
      var i = 0
      while (i < n) {
        val k = math.min(n - i, SliceBytes / 8)
        next(8 * k).asDoubleBuffer().get(out, i, k)
        i += k
      }
      out
    }

    def ints(n: Int): Array[Int] = {
      val out = new Array[Int](n)
      var i = 0
      while (i < n) {
        val k = math.min(n - i, SliceBytes / 4)
        next(4 * k).asIntBuffer().get(out, i, k)
        i += k
      }
      out
    }

    def chars(n: Int): Array[Char] = {
      val out = new Array[Char](n)
      var i = 0
      while (i < n) {
        val k = math.min(n - i, SliceBytes / 2)
        next(2 * k).asCharBuffer().get(out, i, k)
        i += k
      }
      out
    }
  }
}
