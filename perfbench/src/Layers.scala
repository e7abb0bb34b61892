package perfbench

import java.io.{File, RandomAccessFile}
import repro.core.{BitPack, Regressor}
import repro.core.LecoPartition
import repro.lecoformat._

/** Replays one query or write layer by layer, from outside the program:
  * each layer's public entry point is called on the chunks the operation
  * touched, inside a span. The stack, top to bottom:
  * `LecoDataSource`/`LecoPartitionReader` → `LecoFileReader`/`LecoFileWriter`
  * → `ChunkCodec`/`ColumnChunk` → `LecoPartition` → `BitPack`.
  *
  * A layer's self time is its span minus the replayed spans of the layers it
  * calls on the same chunks (see [[Layers.selfTimes]]).
  */
final class Layers(tr: Tracer) {
  import Layers._

  /** Counts taken at the layer boundaries while replaying reads. */
  var groupsTotal = 0L
  var groupsRead = 0L
  var valuesScanned = 0L
  var positionsKept = 0L
  val lecoChunkBytes = new collection.mutable.ArrayBuffer[Long]()
  val rowsEmitted = new collection.mutable.ArrayBuffer[Long]()
  val widthBits = collection.mutable.Map[String, (Long, Long)]() // column -> (sum of width x len, values)

  /** Replay a read of table `dir` in encoding `enc`, restricted to
    * `lo <= ts <= hi` (the whole domain for an unfiltered query), projecting
    * every column.
    */
  def replayRead(op: Int, enc: String, dir: String, lo: Long, hi: Long): Unit = tr(s"replay.read.$enc", op) {
    val pred = RangePredicate(lo, hi)
    var bytes = 0L
    for (file <- LecoTable.partFiles(dir)) {
      val reader = tr("LecoFileReader.open", op, 1) { new LecoFileReader(file) }
      val ts = reader.colIndex(FilterColumn)
      var g = 0
      while (g < reader.numGroups) {
        groupsTotal += 1
        val (zlo, zhi) = reader.zone(g, ts)
        if (pred.mayMatch(zlo, zhi)) {
          groupsRead += 1
          val n = reader.groupRows(g)
          val chunks = Events.Columns.map { col =>
            val c = reader.colIndex(col)
            val before = reader.bytesRead
            val chunk = tr(s"LecoFileReader.read_chunk.$enc", op, n) { reader.readChunk(g, c) }
            bytes += reader.bytesRead - before
            val raw = chunkBytes(file, reader, g, c)
            tr(s"ChunkCodec.decode.$enc", op, n) { ChunkCodec.decode(raw) }
            col -> chunk
          }.toMap
          val positions = tr(s"ColumnChunk.scan.$enc", op, n) { chunks(FilterColumn).scan(pred) }
          valuesScanned += n; positionsKept += positions.length
          for ((col, chunk) <- chunks) {
            val values = tr(s"ColumnChunk.decode_all.$enc", op, n) { chunk.decodeAll() }
            if (col != FilterColumn && positions.nonEmpty)
              tr(s"ColumnChunk.gather.$enc", op, positions.length) { chunk.gather(positions) }
            if (enc == "leco") replayPartitions(op, col, values, if (col != FilterColumn) positions else Array.empty)
          }
        }
        g += 1
      }
    }
    if (enc == "leco") lecoChunkBytes += bytes
    val ranges = if (lo == Long.MinValue && hi == Long.MaxValue) Map.empty[String, (Long, Long)]
                 else Map(FilterColumn -> (lo, hi))
    rowsEmitted += tr.counted(s"LecoPartitionReader.drain.$enc", op) {
      var rows = 0L
      for (file <- LecoTable.partFiles(dir)) {
        val r = new LecoPartitionReader(file.getPath, Events.Columns.toArray, ranges)
        while (r.next()) { r.get(); rows += 1 }
        r.close()
      }
      (rows, rows)
    }
  }

  /** `LecoPartition` and `BitPack` under one LeCo chunk. The partitions are
    * re-encoded from the chunk's values with the writer's partition size,
    * which reproduces the ones stored in the file.
    */
  private def replayPartitions(op: Int, col: String, values: Array[Long], positions: Array[Int]): Unit = {
    val parts = partitions(values)
    val n = values.length.toLong
    val out = new Array[Long](values.length)
    tr("LecoPartition.decode", op, n) {
      var off = 0
      parts.foreach { p => p.decodeInto(out, off); off += p.len }
    }
    tr("BitPack.unpack", op, n) { parts.foreach(p => BitPack.unpackAll(p.words, p.len, p.width)) }
    if (positions.nonEmpty) tr("LecoPartition.get", op, positions.length) {
      var i = 0; var acc = 0L
      while (i < positions.length) { val q = positions(i); acc += parts(q / PartSize).get(q % PartSize); i += 1 }
      acc
    }
    val (w, k) = widthBits.getOrElse(col, (0L, 0L))
    widthBits(col) = (w + parts.map(p => p.width.toLong * p.len).sum, k + n)
  }

  /** Replay the write of table `dir` in encoding `enc`, on the chunks it
    * wrote: `Regressor` and `LecoPartition.encode` (LeCo only), then
    * `ChunkCodec.encode`, then a whole `LecoFileWriter` per part file.
    */
  def replayWrite(op: Int, enc: String, encoding: Encoding, dir: String, scratch: File): Unit = tr(s"replay.write.$enc", op) {
    for (file <- LecoTable.partFiles(dir)) {
      val reader = new LecoFileReader(file)
      val groups = (0 until reader.numGroups).map { g =>
        Events.Columns.map(col => reader.readChunk(g, reader.colIndex(col)).decodeAll()).toArray
      }
      for (cols <- groups; values <- cols) {
        val n = values.length.toLong
        if (enc == "leco") {
          tr("Regressor.fit", op, n) { forPartitions(values)((s, e) => Regressor.fitLinear(values, s, e)) }
          tr("LecoPartition.encode", op, n) { forPartitions(values)((s, e) => LecoPartition.encode(values, s, e)) }
        }
        tr(s"ChunkCodec.encode.$enc", op, n) { ChunkCodec.encode(values, encoding, PartSize, false) }
      }
      val rows = groups.map(_(0).length).sum
      tr(s"LecoFileWriter.write.$enc", op, rows.toLong * Events.Columns.length) {
        val w = new LecoFileWriter(new File(scratch, file.getName), Events.Columns, encoding, PartSize, false, RowGroupRows)
        val row = new Array[Long](Events.Columns.length)
        for (cols <- groups; i <- cols(0).indices) {
          var c = 0
          while (c < row.length) { row(c) = cols(c)(i); c += 1 }
          w.addRow(row)
        }
        w.close()
      }
    }
  }
}

object Layers {
  /** `LecoWriter.write`'s defaults, which the benchmark writes with. */
  val PartSize = 1024
  val RowGroupRows: Int = 1 << 20
  val FilterColumn = "ts"

  private def partitions(values: Array[Long]): Array[LecoPartition] =
    Array.tabulate((values.length + PartSize - 1) / PartSize) { k =>
      LecoPartition.encode(values, k * PartSize, math.min(values.length, (k + 1) * PartSize))
    }

  private def forPartitions(values: Array[Long])(f: (Int, Int) => Any): Unit = {
    var s = 0
    while (s < values.length) { f(s, math.min(values.length, s + PartSize)); s += PartSize }
  }

  /** The serialized chunk exactly as stored, read without the reader. */
  private def chunkBytes(file: File, reader: LecoFileReader, g: Int, c: Int): Array[Byte] = {
    val (_, _, _, offs, lens) = reader.groups(g)
    val raf = new RandomAccessFile(file, "r")
    try {
      val b = new Array[Byte](lens(c))
      raf.seek(offs(c)); raf.readFully(b)
      b
    } finally raf.close()
  }

  /** Self time per value of each layer: its span minus the replayed spans of
    * the layer it calls, on the same chunks.
    */
  def selfTimes(tr: Tracer): Seq[(String, Double)] = {
    def has(n: String) = tr.spans.exists(s => s.name == n && s.n > 0)
    val pairs = Seq(
      "LecoPartition.decode" -> "BitPack.unpack",
      "ColumnChunk.decode_all.leco" -> "LecoPartition.decode",
      "LecoPartition.encode" -> "Regressor.fit",
      "ChunkCodec.encode.leco" -> "LecoPartition.encode",
    ) ++ Bench.Encodings.map(_._1).flatMap { e =>
      Seq(s"LecoFileReader.read_chunk.$e" -> s"ChunkCodec.decode.$e",
          s"LecoFileWriter.write.$e" -> s"ChunkCodec.encode.$e")
    }
    pairs.collect { case (outer, inner) if has(outer) && has(inner) =>
      outer -> (tr.nsPer(outer) - tr.nsPer(inner))
    }
  }
}
