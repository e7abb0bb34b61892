package repro.lecoformat

import java.io.{DataInputStream, DataOutputStream, BufferedInputStream, BufferedOutputStream, FileInputStream, FileOutputStream, File}
import java.nio.ByteBuffer
import repro.core._
import repro.core.baseline.{ForCodec, ForCompressed}

/** Column-chunk encodings supported by the columnar format (§5.1):
  * `Default` = dictionary with plain fallback (Parquet's default), `For`,
  * `LecoFix`. Partition size is fixed at write time (the paper uses 10K).
  */
sealed abstract class Encoding(val tag: Int)
object Encoding {
  case object Default extends Encoding(0)
  case object For     extends Encoding(1)
  case object LecoFix extends Encoding(2)
}

/** A filter predicate the scanner can both evaluate per value and prune
  * with, given a conservative value interval `[lo, hi]` for a partition or
  * row group.
  */
trait ScanPredicate extends Serializable {
  def test(v: Long): Boolean
  def mayMatch(lo: Long, hi: Long): Boolean
}

/** `a <= v <= b`. */
final case class RangePredicate(a: Long, b: Long) extends ScanPredicate {
  def test(v: Long): Boolean = v >= a && v <= b
  def mayMatch(lo: Long, hi: Long): Boolean = hi >= a && lo <= b
}

/** `t1 <= v % mod < t2` — the paper's per-day time-window filter (§5.1.1).
  * `nextMatch(a)` gives the smallest `x >= a` satisfying the predicate,
  * which is what enables LeCo's in-partition computation pruning.
  */
final case class TimeOfDayPredicate(mod: Long, t1: Long, t2: Long) extends ScanPredicate {
  def test(v: Long): Boolean = { val r = v % mod; r >= t1 && r < t2 }
  def nextMatch(a: Long): Long = {
    val r = a % mod
    if (r < t1) a + (t1 - r)
    else if (r < t2) a
    else a + (mod - r) + t1
  }
  def mayMatch(lo: Long, hi: Long): Boolean =
    if (hi - lo >= mod) true else nextMatch(lo) <= hi
}

/** Serialized column chunks: the tag→codec dispatch of the file format.
  * Each chunk is self-describing: `[tag:byte][zstd:byte][rawLen:int][body...]`;
  * when `zstd = 1` the body is zstd-compressed (the §5.1.3 block-compression
  * experiment). FOR and LeCo-fix bodies are the core codecs' objects written
  * field by field, so the file and the microbenchmarks share one
  * implementation of each encoding.
  */
object ChunkCodec {
  val PlainTag = 0; val DictTag = 1; val ForTag = 2; val LecoTag = 3

  /** Pick the plain byte width {1,2,4,8} covering all values. */
  private def plainWidth(values: Array[Long]): Int = {
    var mn = 0L; var mx = 0L
    var i = 0
    while (i < values.length) { val v = values(i); if (v < mn) mn = v; if (v > mx) mx = v; i += 1 }
    if (mn >= Byte.MinValue && mx <= Byte.MaxValue) 1
    else if (mn >= Short.MinValue && mx <= Short.MaxValue) 2
    else if (mn >= Int.MinValue && mx <= Int.MaxValue) 4
    else 8
  }

  def encode(values: Array[Long], enc: Encoding, partSize: Int, zstd: Boolean): Array[Byte] = {
    val size = if (partSize > 0) partSize else 1024 // the format never searches a size
    val body = enc match {
      case Encoding.Default => encodeDefault(values)
      case Encoding.For     => writeFor(new ForCodec(size).compress(values))
      case Encoding.LecoFix => writeLeco(new LecoFixCodec(size).compress(values))
    }
    val payload = if (zstd) com.github.luben.zstd.Zstd.compress(body, 3) else body
    val out = ByteBuffer.allocate(payload.length + 6)
    out.put(body(0)) // tag byte is duplicated pre-compression for dispatch
    out.put(if (zstd) 1.toByte else 0.toByte)
    out.putInt(if (zstd) body.length else 0) // uncompressed length for zstd
    out.put(payload)
    out.array()
  }

  def decode(bytes: Array[Byte]): CompressedInts = {
    val tag  = bytes(0)
    val zstd = bytes(1) == 1
    val rawLen = ByteBuffer.wrap(bytes, 2, 4).getInt
    val body =
      if (zstd) com.github.luben.zstd.Zstd.decompress(java.util.Arrays.copyOfRange(bytes, 6, bytes.length), rawLen)
      else java.util.Arrays.copyOfRange(bytes, 6, bytes.length)
    require(body(0) == tag, "chunk tag mismatch after decompression")
    val buf = ByteBuffer.wrap(body); buf.get() // skip tag
    tag match {
      case PlainTag => PlainChunk.read(buf)
      case DictTag  => DictChunk.read(buf)
      case ForTag   => readFor(buf)
      case LecoTag  => readLeco(buf)
    }
  }

  private def writeWords(buf: DataOutputStream, words: Array[Long]): Unit = {
    buf.writeInt(words.length)
    var i = 0
    while (i < words.length) { buf.writeLong(words(i)); i += 1 }
  }

  private def bytesOf(f: DataOutputStream => Unit): Array[Byte] = {
    val bos = new java.io.ByteArrayOutputStream()
    val d   = new DataOutputStream(bos)
    f(d); d.flush(); bos.toByteArray
  }

  private[lecoformat] def readWords(buf: ByteBuffer): Array[Long] = {
    val n = buf.getInt
    val w = new Array[Long](n)
    var i = 0
    while (i < n) { w(i) = buf.getLong; i += 1 }
    w
  }

  /** Dictionary with plain fallback at NDV > 50% of rows (and when empty). */
  def encodeDefault(values: Array[Long]): Array[Byte] = {
    val distinct = values.distinct
    if (values.isEmpty || distinct.length > values.length / 2) encodePlain(values)
    else {
      val dict  = distinct.sorted
      val index = new java.util.HashMap[java.lang.Long, Integer]()
      dict.zipWithIndex.foreach { case (v, i) => index.put(v, i) }
      val width = math.max(1, BitPack.bitsFor(dict.length - 1L))
      val codes = new Array[Long](values.length)
      var i = 0
      while (i < values.length) { codes(i) = index.get(values(i)).longValue(); i += 1 }
      val words = BitPack.pack(codes, width)
      bytesOf { d =>
        d.writeByte(DictTag)
        d.writeInt(values.length); d.writeInt(dict.length); d.writeByte(width)
        dict.foreach(d.writeLong)
        writeWords(d, words)
      }
    }
  }

  def encodePlain(values: Array[Long]): Array[Byte] = {
    val w = plainWidth(values)
    bytesOf { d =>
      d.writeByte(PlainTag)
      d.writeInt(values.length); d.writeByte(w)
      var i = 0
      while (i < values.length) {
        val v = values(i)
        w match {
          case 1 => d.writeByte(v.toInt)
          case 2 => d.writeShort(v.toInt)
          case 4 => d.writeInt(v.toInt)
          case 8 => d.writeLong(v)
        }
        i += 1
      }
    }
  }

  /** `[n:int][partSize:int]` then per frame `[min:long][width:byte][words]`. */
  private def writeFor(c: ForCompressed): Array[Byte] = bytesOf { d =>
    d.writeByte(ForTag)
    d.writeInt(c.length); d.writeInt(c.partSize)
    var p = 0
    while (p < c.mins.length) {
      d.writeLong(c.mins(p)); d.writeByte(c.widths(p))
      writeWords(d, c.words(p))
      p += 1
    }
  }

  private def readFor(buf: ByteBuffer): ForCompressed = {
    val n = buf.getInt; val size = buf.getInt
    val nParts = (n + size - 1) / size
    val mins = new Array[Long](nParts); val widths = new Array[Int](nParts)
    val words = new Array[Array[Long]](nParts)
    var p = 0
    while (p < nParts) {
      mins(p) = buf.getLong; widths(p) = buf.get() & 0xff
      words(p) = readWords(buf)
      p += 1
    }
    new ForCompressed(n, size, mins, widths, words)
  }

  /** `[n:int][partSize:int]` then per partition
    * `[θ0:double][θ1:double][width:byte][nCorr:short][corr:int*][words]`.
    */
  private def writeLeco(c: LecoFixCompressed): Array[Byte] = bytesOf { d =>
    d.writeByte(LecoTag)
    d.writeInt(c.length); d.writeInt(c.partSize)
    for (p <- c.parts) {
      d.writeDouble(p.theta0); d.writeDouble(p.theta1); d.writeByte(p.width)
      d.writeShort(p.corrections.length)
      p.corrections.foreach(d.writeInt)
      writeWords(d, p.words)
    }
  }

  private def readLeco(buf: ByteBuffer): LecoFixCompressed = {
    val n = buf.getInt; val size = buf.getInt
    new LecoFixCompressed(n, size, Partitioner.fixed(n, size) { (s, e) =>
      val t0 = buf.getDouble; val t1 = buf.getDouble; val w = buf.get() & 0xff
      val corr = Array.fill(buf.getShort.toInt)(buf.getInt)
      LecoPartition(t0, t1, w, e - s, readWords(buf), corr)
    })
  }
}

/** The format-only encodings, Parquet's default pair: plain values at the
  * narrowest byte width, and a sorted dictionary with bit-packed codes.
  */
final class PlainChunk(values: Array[Long], width: Int) extends CompressedInts {
  def length: Int = values.length
  def sizeBytes: Long = 4 + 1 + values.length.toLong * width
  def decodeAll(): Array[Long] = values
  def get(i: Int): Long = values(i)
}
object PlainChunk {
  def read(buf: ByteBuffer): PlainChunk = {
    val n = buf.getInt; val w = buf.get()
    val out = new Array[Long](n)
    var i = 0
    while (i < n) {
      out(i) = w match {
        case 1 => buf.get().toLong
        case 2 => buf.getShort.toLong
        case 4 => buf.getInt.toLong
        case 8 => buf.getLong
      }
      i += 1
    }
    new PlainChunk(out, w)
  }
}

final class DictChunk(val nRows: Int, dict: Array[Long], width: Int, words: Array[Long]) extends CompressedInts {
  def length: Int = nRows
  def sizeBytes: Long = 4 + 4 + 1 + dict.length * 8L + 4 + words.length * 8L
  def get(i: Int): Long = dict(BitPack.read(words, i, width).toInt)
  def decodeAll(): Array[Long] = {
    val out = new Array[Long](nRows)
    var i = 0
    while (i < nRows) { out(i) = get(i); i += 1 }
    out
  }
}
object DictChunk {
  def read(buf: ByteBuffer): DictChunk = {
    val n = buf.getInt; val ds = buf.getInt; val w = buf.get()
    val dict = new Array[Long](ds)
    var i = 0
    while (i < ds) { dict(i) = buf.getLong; i += 1 }
    new DictChunk(n, dict, w, ChunkCodec.readWords(buf))
  }
}

/** Part-file writer: `LECO1 | nCols | colNames | rowGroups* | footer`.
  * One instance per task/file; feed rows column-wise per row group.
  */
final class LecoFileWriter(file: File, columns: Seq[String], encoding: Encoding,
                           partSize: Int, zstd: Boolean, rowGroupRows: Int) {
  private val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(file), 1 << 16))
  private val buffers = Array.fill(columns.size)(new scala.collection.mutable.ArrayBuffer[Long](rowGroupRows))
  out.writeBytes("LECO1")
  out.writeInt(columns.size)
  columns.foreach(out.writeUTF)

  def addRow(values: Array[Long]): Unit = {
    var c = 0
    while (c < values.length) { buffers(c) += values(c); c += 1 }
    if (buffers(0).length >= rowGroupRows) flushGroup()
  }

  private def flushGroup(): Unit = {
    if (buffers(0).isEmpty) return
    out.writeInt(buffers(0).length)
    var c = 0
    while (c < buffers.length) {
      val vals = buffers(c).toArray
      var mn = Long.MaxValue; var mx = Long.MinValue
      vals.foreach { v => if (v < mn) mn = v; if (v > mx) mx = v }
      val bytes = ChunkCodec.encode(vals, encoding, partSize, zstd)
      out.writeLong(mn); out.writeLong(mx); out.writeInt(bytes.length)
      out.write(bytes)
      buffers(c).clear()
      c += 1
    }
  }

  def close(): Unit = { flushGroup(); out.writeInt(-1); out.flush(); out.close() }
}

/** Reader over one part file (loads chunk bytes lazily per row group).
  * `bytesRead` counts the chunk bytes actually fetched — the benches charge
  * modeled cold-read I/O on it (the OS page cache hides real I/O at our
  * scale; see DESIGN.md hardware substitutions).
  */
final class LecoFileReader(file: File) {
  var bytesRead: Long = 0L

  val (columns, groups): (Array[String], Array[(Int, Array[Long], Array[Long], Array[Long], Array[Int])]) = {
    val in = new DataInputStream(new BufferedInputStream(new FileInputStream(file), 1 << 16))
    val magic = new Array[Byte](5); in.readFully(magic)
    require(new String(magic) == "LECO1", s"bad magic in $file")
    val nCols = in.readInt
    val cols = Array.fill(nCols)(in.readUTF)
    var offset = 5L + 4 + cols.map(c => 2 + c.getBytes("UTF-8").length).sum
    val gs = scala.collection.mutable.ArrayBuffer[(Int, Array[Long], Array[Long], Array[Long], Array[Int])]()
    var nRows = in.readInt; offset += 4
    while (nRows != -1) {
      val mins = new Array[Long](nCols); val maxs = new Array[Long](nCols)
      val offs = new Array[Long](nCols); val lens = new Array[Int](nCols)
      var c = 0
      while (c < nCols) {
        mins(c) = in.readLong; maxs(c) = in.readLong
        val len = in.readInt
        offset += 20
        offs(c) = offset; lens(c) = len
        in.skipNBytes(len); offset += len
        c += 1
      }
      gs += ((nRows, mins, maxs, offs, lens))
      nRows = in.readInt; offset += 4
    }
    in.close()
    (cols, gs.toArray)
  }

  def colIndex(name: String): Int = {
    val i = columns.indexOf(name)
    require(i >= 0, s"no column $name in ${columns.mkString(",")}")
    i
  }

  def numGroups: Int = groups.length
  def groupRows(g: Int): Int = groups(g)._1
  def zone(g: Int, col: Int): (Long, Long) = (groups(g)._2(col), groups(g)._3(col))

  def readChunk(g: Int, col: Int): CompressedInts = {
    val (_, _, _, offs, lens) = groups(g)
    bytesRead += lens(col)
    val raf = new java.io.RandomAccessFile(file, "r")
    try {
      raf.seek(offs(col))
      val bytes = new Array[Byte](lens(col))
      raf.readFully(bytes)
      ChunkCodec.decode(bytes)
    } finally raf.close()
  }

  /** The row-group scanner, step 1 (select): the ascending positions of group
    * `g` that pass every `(column index, predicate)`. The zone maps skip the
    * group when any predicate cannot match; otherwise each predicate's chunk
    * `scan`s with its encoding's pruning and the results are intersected.
    * `None` when there is no predicate, i.e. every row survives.
    */
  def selectRows(g: Int, preds: Seq[(Int, ScanPredicate)]): Option[Array[Int]] =
    if (preds.isEmpty) None
    else if (!preds.forall { case (c, p) => val (lo, hi) = zone(g, c); p.mayMatch(lo, hi) }) Some(Array.emptyIntArray)
    else Some(preds.map { case (c, p) => readChunk(g, c).scan(p) }.reduce(intersectSorted))

  /** Step 2 (materialize): column `col` of group `g` at `rows` (as from
    * [[selectRows]]). Late materialization gathers by random access when
    * fewer than 10% of the group's rows survive, and otherwise decodes the
    * whole chunk and picks the survivors.
    */
  def readRows(g: Int, col: Int, rows: Option[Array[Int]]): Array[Long] = {
    val chunk = readChunk(g, col)
    rows match {
      case None => chunk.decodeAll()
      case Some(pos) if pos.length.toLong * 10 < chunk.length => chunk.gather(pos)
      case Some(pos) =>
        val all = chunk.decodeAll()
        val out = new Array[Long](pos.length)
        var i = 0
        while (i < pos.length) { out(i) = all(pos(i)); i += 1 }
        out
    }
  }

  private def intersectSorted(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuffer[Int](math.min(a.length, b.length))
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { out += a(i); i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    out.toArray
  }
}

/** Directory-level table: the unit Spark and the benches operate on. */
object LecoTable {
  def partFiles(dir: String): Array[File] = {
    val fs = new File(dir).listFiles()
    require(fs != null, s"no such table dir: $dir")
    fs.filter(_.getName.endsWith(".leco")).sortBy(_.getName)
  }

  def totalSizeBytes(dir: String): Long = partFiles(dir).map(_.length).sum

  /** Filter-scan with late materialization (§5.1.1): evaluate `pred` on
    * `filterCol` (row-group zone skip + encoding-level pruning), then gather
    * `projectCol` at the matching positions. Returns the projected values.
    */
  def filterScan(dir: String, filterCol: String, pred: ScanPredicate,
                 projectCol: String): Array[Long] =
    filterScanCounted(dir, filterCol, pred, projectCol)._1

  /** filterScan plus the chunk bytes actually read (for modeled-I/O
    * accounting in the benches).
    */
  def filterScanCounted(dir: String, filterCol: String, pred: ScanPredicate,
                 projectCol: String): (Array[Long], Long) = {
    val out = new scala.collection.mutable.ArrayBuffer[Long]()
    var ioBytes = 0L
    for (f <- partFiles(dir)) {
      val r     = new LecoFileReader(f)
      val preds = Seq(r.colIndex(filterCol) -> pred)
      val pc    = r.colIndex(projectCol)
      for (g <- 0 until r.numGroups) {
        val rows = r.selectRows(g, preds)
        if (rows.exists(_.nonEmpty)) out ++= r.readRows(g, pc, rows)
      }
      ioBytes += r.bytesRead
    }
    (out.toArray, ioBytes)
  }

  /** Bitmap selection (§5.1.2): decode the values at the set positions of a
    * global bitmap (positions are table-wide row indices).
    */
  def bitmapSelect(dir: String, col: String, positions: Array[Long]): Array[Long] = {
    val out = new Array[Long](positions.length)
    var fileBase = 0L
    var pi = 0
    for (f <- partFiles(dir)) {
      val r = new LecoFileReader(f)
      val c = r.colIndex(col)
      var g = 0
      while (g < r.numGroups) {
        val n = r.groupRows(g)
        val groupEnd = fileBase + n
        if (pi < positions.length && positions(pi) < groupEnd) {
          val local = new scala.collection.mutable.ArrayBuffer[Int]()
          val firstPi = pi
          while (pi < positions.length && positions(pi) < groupEnd) {
            local += (positions(pi) - fileBase).toInt
            pi += 1
          }
          val vals = r.readRows(g, c, Some(local.toArray))
          System.arraycopy(vals, 0, out, firstPi, vals.length)
        }
        fileBase = groupEnd
        g += 1
      }
    }
    out
  }
}
