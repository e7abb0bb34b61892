package perfbench

import java.io.File
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.lecoformat.{Encoding, LecoTable, LecoWriter}

/** The two workloads, each a closed loop with one client:
  *  - `scan_full`: `SELECT count(*), sum(ts), sum(id), sum(qty)`;
  *  - `scan_range`: `SELECT count(*), sum(id), sum(qty) WHERE ts BETWEEN a AND b`.
  * Queries interleave the encodings, rotating which goes first so that drift
  * within the JVM hits all of them alike; so do the rewrites of each
  * encoding's table with `LecoWriter.write`. Every query and write is
  * checked against an oracle; a throw or a wrong result counts as failed and
  * the run goes on.
  */
final class Bench(spark: SparkSession, o: Opts) {
  import Bench._

  private val rows = if (o.rows > 0) o.rows else DefaultRows
  private val ranged = o.workload == "scan_range"
  private val encNames = Encodings.map(_._1)
  private val start = System.nanoTime()
  private val tracer = if (o.trace) Some(new Tracer) else None
  private val heap = new HeapWatch
  private val dataDir = new File(o.work, s"data/${o.workload}")
  private val registered = collection.mutable.Set[String]()
  private var attempted = 0L
  private var failed = 0L
  private var opId = 0

  private def elapsedS: Double = (System.nanoTime() - start) / 1e9
  private def log(msg: String): Unit = Console.err.println(f"[$elapsedS%7.2f s] $msg")
  private def dir(enc: String): String = new File(dataDir, enc).getPath
  private def view(enc: String): String = s"events_$enc"

  /** Run one query or write and check it; returns its wall time in ms. */
  private def attempt(what: String)(body: => Boolean): Double = {
    attempted += 1
    opId += 1
    val t0 = System.nanoTime()
    val ok = try body || { log(s"FAILED $what: wrong result"); false }
             catch { case NonFatal(e) => log(s"FAILED $what: $e"); false }
    val ms = (System.nanoTime() - t0) / 1e6
    if (!ok) failed += 1
    ms
  }

  /** Write `df` as table `enc`; its view is made after the first write. */
  private def write(df: DataFrame, enc: String, encoding: Encoding): Double =
    attempt(s"write $enc") {
      LecoWriter.write(df, dir(enc), encoding)
      if (registered.add(enc)) spark.read.format("leco").load(dir(enc)).createOrReplaceTempView(view(enc))
      true
    }

  /** Run `sql`; when `traced`, inside spans, with planning timed apart. */
  private def collect(sql: String, traced: Boolean): Row = tracer.filter(_ => traced) match {
    case Some(tr) => tr("query", opId) {
      val df = spark.sql(sql)
      tr("LecoDataSource.plan", opId) { df.queryExecution.executedPlan }
      df.collect()(0)
    }
    case None => spark.sql(sql).collect()(0)
  }

  private def longAt(r: Row, i: Int): Long = if (r.isNullAt(i)) 0L else r.getLong(i)

  /** The full aggregate over `v`, checked against `e`. */
  private def queryAll(v: String, e: Agg, traced: Boolean): Double = attempt(s"query $v") {
    val r = collect(s"SELECT count(*), sum(ts), sum(id), sum(qty) FROM ${view(v)}", traced)
    longAt(r, 0) == e.count && longAt(r, 1) == e.sumTs && longAt(r, 2) == e.sumId && longAt(r, 3) == e.sumQty
  }

  /** Range query `k` over `v`, checked against its oracle (computed
    * before the query is timed).
    */
  private def queryRange(v: String, q: RangeQueries, k: Int, traced: Boolean): Double = {
    val (a, b) = q.bounds(k)
    val e = q.oracle(k)
    attempt(s"range $k $v") {
      val r = collect(s"SELECT count(*), sum(id), sum(qty) FROM ${view(v)} WHERE ts BETWEEN $a AND $b", traced)
      longAt(r, 0) == e.count && longAt(r, 1) == e.sumId && longAt(r, 2) == e.sumQty
    }
  }

  /** Generate the table from the seed, cache it, write it in every
    * encoding and read each back. Returns the table, its DataFrame and the
    * seconds taken, read-backs excluded.
    */
  private def setup(): (Events, DataFrame, Double) = {
    val t0 = System.nanoTime()
    var checkMs = 0.0
    val ev = Events.generate(rows, o.seed)
    val df = Events.toDataFrame(spark, ev, Slices).cache()
    df.count()
    val expected = Events.total(ev)
    for ((enc, encoding) <- Encodings) {
      write(df, enc, encoding)
      checkMs += queryAll(enc, expected, traced = false)
    }
    (ev, df, (System.nanoTime() - t0) / 1e9 - checkMs / 1e3)
  }

  /** Run the warm-up, a fixed amount of work, so that every run reaches the
    * timed phase with the same work behind it. Then collect once, so that
    * every run starts the timed phase from a heap without the warm-up's
    * garbage, and give the JIT compiler a moment to finish what the warm-up
    * queued.
    */
  private def warmUp(work: => Unit): Unit = {
    work
    System.gc()
    val jit = java.lang.management.ManagementFactory.getCompilationMXBean
    val until = System.nanoTime() + (JitSettleMaxS * 1e9).toLong
    var last = jit.getTotalCompilationTime
    var quiet = false
    while (!quiet && System.nanoTime() < until) {
      Thread.sleep(250)
      val now = jit.getTotalCompilationTime
      quiet = now - last < 25
      last = now
    }
  }

  /** Repeat `round` for `seconds`, and until `counts` reaches `minOps`, but
    * never past the run's deadline.
    */
  private def timed(seconds: Double, counts: => Int, minOps: Int)(round: Int => Unit): Unit = {
    val t0 = System.nanoTime()
    var r = 0
    while (((System.nanoTime() - t0) / 1e9 < seconds || counts < minOps) && elapsedS < o.deadlineS - DeadlineMarginS) {
      round(r); r += 1
    }
  }

  private def rotate[T](xs: Seq[T], r: Int): Seq[T] = { val k = r % xs.size; xs.drop(k) ++ xs.take(k) }

  def run(): Result = {
    deleteTree(dataDir)
    dataDir.mkdirs()
    // each set-up's cached table is dropped before the next set-up starts
    val setupS = ArrayBuffer[Double]()
    var kept: (Events, DataFrame) = null
    for (_ <- 1 to (if (o.trace) 1 else SetupRepeats)) {
      if (kept != null) kept._2.unpersist()
      val (e, d, s) = setup()
      kept = (e, d)
      setupS += s
    }
    val (ev, df) = kept
    log(f"setup: ${setupS.map(s => f"$s%.2f").mkString(" ")} s, ${ev.n} rows")
    if (o.trace) {
      // the Parquet reference is read by traced runs only
      df.write.mode("overwrite").parquet(dir("parquet"))
      spark.read.parquet(dir("parquet")).createOrReplaceTempView(view("parquet"))
    }
    val expected = Events.total(ev)
    val queries = new RangeQueries(ev, o.seed)

    // A query round runs the workload's query on every encoding (and,
    // traced, on the Parquet copy) in rotated order; in a traced run every
    // other round is traced. A write rewrites one encoding's table and reads
    // it back. The warm-up does query rounds, then writes; the timed phase
    // times queries alone, then the write phase times writes alone, so that
    // neither disturbs the other's samples.
    val views = encNames ++ (if (o.trace) Seq("parquet") else Nil)
    val plain = views.map(_ -> ArrayBuffer[Double]()).toMap
    val traced = encNames.map(_ -> ArrayBuffer[Double]()).toMap
    val writes = encNames.map(_ -> ArrayBuffer[Double]()).toMap
    var k = 0
    def queryRound(r: Int, record: Boolean): Unit =
      for (v <- rotate(views, r)) {
        val t = o.trace && r % 2 == 1 && v != "parquet"
        // every range query has bounds of its own, so each one pays Spark's
        // code generation for its literals, as a new query would
        val q = if (ranged) queryRange(v, queries, k, t) else queryAll(v, expected, t)
        k += 1
        if (record) (if (t) traced else plain)(v) += q
      }
    def rewrite(enc: String, encoding: Encoding): Double = {
      val w = write(df, enc, encoding)
      queryAll(enc, expected, traced = false)
      w
    }
    warmUp {
      (0 until WarmupRounds).foreach(queryRound(_, record = false))
      for (r <- 0 until WarmupWrites; (enc, encoding) <- rotate(Encodings, r)) rewrite(enc, encoding)
    }
    val gc0 = heap.gcMillis
    heap.record(true)
    timed(o.seconds, encNames.map(plain(_).length).min, if (o.trace) MinTracedOps else MinOps)(queryRound(_, record = true))
    val gcMs = heap.gcMillis - gc0
    if (!o.trace)
      for (r <- 0 until WriteRounds; (enc, encoding) <- rotate(Encodings, r)) writes(enc) += rewrite(enc, encoding)
    heap.record(false)
    val afterGc = heap.afterGcMb
    log(s"timed: ${plain("leco").length} untraced query rounds, ${writes("leco").length} writes per encoding, " +
        s"$attempted attempted, $failed failed")

    val metrics = if (!o.trace) {
      Seq("setup_s" -> Metric(Stats.median(setupS.toSeq), "s"),
          "heap_live_mb" -> Metric(heapLiveMb(afterGc), "MB")) ++
        encNames.map(e => s"query_ms_p50.$e" -> Metric(Stats.median(plain(e).toSeq), "ms")) ++
        encNames.map(e => s"query_ms_$TailName.$e" -> Metric(Stats.percentile(plain(e).toSeq, TailP), "ms")) ++
        encNames.map(e => s"ingest_mb_per_s.$e" -> Metric(ev.rawBytes / 1e3 / Stats.median(writes(e).toSeq), "MB/s")) ++
        encNames.map(e => s"compression_ratio.$e" ->
                          Metric(LecoTable.totalSizeBytes(dir(e)).toDouble / ev.rawBytes, "ratio"))
    } else {
      val layers = new Layers(tracer.get)
      for (rep <- 0 until TraceReplays; enc <- rotate(encNames, rep)) {
        if (ranged) for (q <- 0 until RangeReplays) {
          val (a, b) = queries.bounds(rep * RangeReplays + q)
          opId += 1
          layers.replayRead(opId, enc, dir(enc), a, b)
        } else {
          opId += 1
          layers.replayRead(opId, enc, dir(enc), Long.MinValue, Long.MaxValue)
        }
      }
      val scratch = new File(o.work, "tmp/replay")
      deleteTree(scratch); scratch.mkdirs()
      for (rep <- 0 until WriteReplays; (enc, encoding) <- rotate(Encodings, rep)) {
        opId += 1
        layers.replayWrite(opId, enc, encoding, dir(enc), scratch)
      }
      perLayer(layers, plain, traced, gcMs, ev.rawBytes)
    }
    df.unpersist()
    val record = Seq(
      "failed_frac" -> Json.num(if (attempted == 0) 0.0 else failed.toDouble / attempted),
      "heap_after_gc_mb_samples" -> afterGc.map(Json.num).mkString("[", ", ", "]"),
      "query_ms_samples" -> Json.obj(plain.toSeq.sortBy(_._1).map { case (v, s) => v -> s.map(Json.num).mkString("[", ", ", "]") }),
      "write_ms_samples" -> Json.obj(writes.toSeq.sortBy(_._1).map { case (v, s) => v -> s.map(Json.num).mkString("[", ", ", "]") })) ++
      tracer.map(tr => "self_ns_per_value" -> Json.obj(Layers.selfTimes(tr).map { case (n, v) => n -> Json.num(v) }))
    Result(attempted, failed, metrics, record, tracer)
  }

  /** Every per-layer metric, from the spans and counts of a traced run. */
  private def perLayer(layers: Layers, plain: collection.Map[String, ArrayBuffer[Double]],
                       traced: collection.Map[String, ArrayBuffer[Double]], gcMs: Long,
                       raw: Long): Seq[(String, Metric)] = {
    val tr = tracer.get
    val overhead = Stats.median(encNames.map(e => Stats.median(traced(e).toSeq) / Stats.median(plain(e).toSeq) - 1))
    def perEnc(name: String, span: String, unit: String)(f: String => Double) =
      encNames.map(e => s"$name.$e" -> Metric(f(s"$span.$e"), unit))
    def medianOf(xs: collection.Seq[Long]) = Stats.median(xs.map(_.toDouble).toSeq)
    Seq(
      "BitPack.unpack_ns_per_value" -> Metric(tr.nsPer("BitPack.unpack"), "ns"),
      "LecoPartition.decode_ns_per_value" -> Metric(tr.nsPer("LecoPartition.decode"), "ns"),
      "LecoPartition.get_ns" -> Metric(tr.nsPer("LecoPartition.get"), "ns"),
    ) ++
      perEnc("ColumnChunk.decode_all_ns_per_value", "ColumnChunk.decode_all", "ns")(tr.nsPer) ++
      perEnc("ChunkCodec.decode_ns_per_value", "ChunkCodec.decode", "ns")(tr.nsPer) ++
      perEnc("LecoPartitionReader.drain_ms", "LecoPartitionReader.drain", "ms")(tr.medianMs) ++
      Seq(
        "LecoPartitionReader.rows_emitted" -> Metric(medianOf(layers.rowsEmitted), "count"),
        "LecoFileReader.open_ms" -> Metric(tr.medianMs("LecoFileReader.open"), "ms"),
        "LecoDataSource.plan_ms" -> Metric(tr.medianMs("LecoDataSource.plan"), "ms"),
      ) ++
      perEnc("LecoFileReader.read_chunk_ms", "LecoFileReader.read_chunk", "ms")(tr.medianMs) ++
      Seq(
        "LecoFileReader.chunk_bytes" -> Metric(medianOf(layers.lecoChunkBytes), "count"),
        "LecoFileReader.groups_read_frac" -> Metric(layers.groupsRead.toDouble / layers.groupsTotal, "ratio"),
        "ColumnChunk.match_frac" -> Metric(layers.positionsKept.toDouble / layers.valuesScanned, "ratio"),
      ) ++
      perEnc("ColumnChunk.scan_ns_per_value", "ColumnChunk.scan", "ns")(tr.nsPer) ++
      perEnc("ColumnChunk.gather_ns_per_pos", "ColumnChunk.gather", "ns")(tr.nsPer) ++
      Seq(
        "Regressor.fit_ns_per_value" -> Metric(tr.nsPer("Regressor.fit"), "ns"),
        "LecoPartition.encode_ns_per_value" -> Metric(tr.nsPer("LecoPartition.encode"), "ns"),
      ) ++
      perEnc("ChunkCodec.encode_ns_per_value", "ChunkCodec.encode", "ns")(tr.nsPer) ++
      perEnc("LecoFileWriter.write_ns_per_value", "LecoFileWriter.write", "ns")(tr.nsPer) ++
      Events.Columns.map { c =>
        val (w, n) = layers.widthBits(c)
        s"LecoPartition.mean_width_bits.$c" -> Metric(w.toDouble / n, "bits")
      } ++
      Seq(
        "jvm.gc_ms" -> Metric(gcMs.toDouble, "ms"),
        "trace.overhead_frac" -> Metric(overhead, "ratio"),
        "ref.parquet_query_ms_p50" -> Metric(Stats.median(plain("parquet").toSeq), "ms"),
        "ref.parquet_compression_ratio" -> Metric(parquetBytes.toDouble / raw, "ratio"),
      )
  }

  /** `HeapTailP` percentile of the heap in use after each GC of the timed
    * phases; the heap in use now if no GC ran (tiny tables).
    */
  private def heapLiveMb(afterGc: Seq[Double]): Double =
    if (afterGc.nonEmpty) Stats.percentile(afterGc, HeapTailP)
    else java.lang.management.ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1048576.0

  private def parquetBytes: Long =
    new File(dir("parquet")).listFiles().filter(_.getName.endsWith(".parquet")).map(_.length).sum
}

object Bench {
  val Encodings: Seq[(String, Encoding)] =
    Seq("leco" -> Encoding.LecoFix, "for" -> Encoding.For, "default" -> Encoding.Default)
  /** Rows of the table, unless `--rows` says otherwise. */
  val DefaultRows: Int = 1 << 21
  /** Part files (Spark partitions) per table, of consecutive rows. */
  val Slices = 8
  /** Set-up runs this often per untraced run; `setup_s` is the median. */
  val SetupRepeats = 3
  /** Untimed query rounds, then untimed writes per encoding, before the
    * timed phase. Spark's planner and scheduler keep getting faster as the
    * JIT compiles them, for longer than a run lasts, so the warm-up is a
    * fixed amount of work; then the JIT gets up to `JitSettleMaxS` to go
    * quiet.
    */
  val WarmupRounds = 10
  val WarmupWrites = 2
  val JitSettleMaxS = 2.0
  /** Query rounds the timed phase needs at least: ten samples beyond the
    * tail percentile, which is therefore p66 (p90 would need 100 rounds,
    * more than the run budget allows).
    */
  val MinOps = 30
  val TailP = 0.66
  val TailName = "p66"
  /** Writes per encoding in the write phase of an untraced run. */
  val WriteRounds = 8
  /** Percentile of the after-GC heap samples reported as `heap_live_mb`: a
    * run has about a hundred collections in its timed phases, so about ten
    * lie beyond it. Their maximum moved by 12% from run to run.
    */
  val HeapTailP = 0.9
  /** A traced run reports medians only. */
  val MinTracedOps = 10
  /** Replays per encoding in a traced run; a range replay is this many queries. */
  val TraceReplays = 3
  val RangeReplays = 8
  val WriteReplays = 2
  /** The timed phase ends this long before the run's deadline, leaving time
    * for the replays and shutdown.
    */
  val DeadlineMarginS = 25.0

  def deleteTree(f: File): Unit = {
    if (f.isDirectory) f.listFiles().foreach(deleteTree)
    f.delete()
  }
}
