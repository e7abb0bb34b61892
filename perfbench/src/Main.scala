package perfbench

import java.io.File
import java.lang.management.{ManagementFactory, MemoryType}
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.SparkSession

/** Command-line options; `run.py` passes them all. */
final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, rows: Int,
                      heap: String, commit: String, sourceHash: String, work: File, deadlineS: Int)

object Opts {
  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    Opts(m("workload"), m("seed").toLong, m("seconds").toInt, m("trace") == "1", m("rows").toInt,
         m("heap"), m("commit"), m("source-hash"), new File(m("work")), m("deadline").toInt)
  }
}

/** Entry point: one workload, one seed, one closed-loop client, one local
  * SparkSession with `local[nproc]`. Prints the result JSON as the last line
  * of standard output; everything else goes to standard error.
  */
object Main {
  val HoldoutSeed = 7L

  def main(args: Array[String]): Unit = {
    val o = Opts.parse(args)
    val nproc = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .config("spark.local.dir", new File(o.work, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(o.work, "warehouse").getPath)
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .getOrCreate()
    val code =
      try {
        val res = new Bench(spark, o).run()
        val env = Seq(
          "workload" -> Json.str(o.workload), "seed" -> o.seed.toString, "holdout_seed" -> HoldoutSeed.toString,
          "trace" -> o.trace.toString, "seconds" -> o.seconds.toString, "nproc" -> nproc.toString,
          "xmx" -> Json.str(o.heap), "max_heap_mb" -> (Runtime.getRuntime.maxMemory / 1048576).toString,
          "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
          "spark" -> Json.str(spark.version), "spark_master" -> Json.str(spark.sparkContext.master),
          "git_commit" -> Json.str(o.commit), "source_hash" -> Json.str(o.sourceHash),
          "os" -> Json.str(s"${System.getProperty("os.name")} ${System.getProperty("os.arch")}"))
        val line = Json.obj(Seq("correct" -> (res.failed == 0).toString, "attempted" -> res.attempted.toString,
                                "failed" -> res.failed.toString, "metrics" -> Json.metrics(res.metrics)))
        val results = new File(o.work, "results"); results.mkdirs()
        val stem = s"${o.workload}-seed${o.seed}-trace${if (o.trace) 1 else 0}-${System.currentTimeMillis}"
        val record = Json.obj(Seq("env" -> Json.obj(env), "result" -> line) ++ res.extra)
        java.nio.file.Files.writeString(new File(results, s"$stem.json").toPath, record + "\n")
        res.tracer.foreach(_.writeJsonl(new File(results, s"$stem-spans.jsonl")))
        Console.err.println(s"perfbench: wrote ${new File(results, stem)}.json")
        println(line)
        0
      } catch {
        case NonFatal(e) => e.printStackTrace(); 1
      } finally spark.stop()
    System.exit(code)
  }
}

final case class Result(attempted: Long, failed: Long, metrics: Seq[(String, Metric)],
                        extra: Seq[(String, String)], tracer: Option[Tracer])

/** Heap occupancy after each garbage collection while recording, and GC
  * time. The JVM reports each collection in a notification that carries the
  * usage of every memory pool right after it; no GC is forced.
  */
final class HeapWatch {
  private val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
  private val heapPools =
    ManagementFactory.getMemoryPoolMXBeans.asScala.filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val afterGc = ArrayBuffer[Double]()
  @volatile private var recording = false

  private val listener: NotificationListener = (n: Notification, _: AnyRef) =>
    if (recording && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
      val used = info.getMemoryUsageAfterGc.asScala.collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
      afterGc.synchronized(afterGc += used / 1048576.0)
    }
  beans.foreach { case e: NotificationEmitter => e.addNotificationListener(listener, null, null); case _ => }

  def gcMillis: Long = beans.map(_.getCollectionTime).sum

  def record(on: Boolean): Unit = recording = on

  /** Heap in use right after each collection recorded, in MB. */
  def afterGcMb: Seq[Double] = afterGc.synchronized(afterGc.toSeq)
}
