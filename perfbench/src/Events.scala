package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import repro.data.Datasets

/** Table `events`, one row per event, three BIGINT columns that the
  * encodings treat differently:
  *  - `ts`: almost-sorted seconds (the Fig 14 recipe: `Datasets.wiki` plus
  *    local swaps), where LeCo's model leaves narrow deltas;
  *  - `id`: shuffled `Datasets.facebook` IDs, no serial correlation;
  *  - `qty`: 100 distinct values, which sends `Default` down its dictionary
  *    path.
  * Generator value ranges are kept as they are.
  */
final class Events(val ts: Array[Long], val id: Array[Long], val qty: Array[Long]) {
  def n: Int = ts.length
  def rawBytes: Long = n.toLong * Events.Columns.length * 8
}

/** Expected result of `SELECT count(*), sum(ts), sum(id), sum(qty)` over
  * the selected rows. The generators' ranges keep the sums far from
  * overflowing a BIGINT at the benchmark's sizes.
  */
final case class Agg(count: Long, sumTs: Long, sumId: Long, sumQty: Long)

object Events {
  val Columns: Seq[String] = Seq("ts", "id", "qty")
  val Schema: StructType = StructType(Columns.map(StructField(_, LongType, nullable = false)))

  /** The data is a pure function of (n, seed). */
  def generate(n: Int, seed: Long): Events = {
    val r = new scala.util.Random(seed)
    val ts = Datasets.wiki(n, r.nextLong())
    var i = 0
    while (i + 4 < n) { if (r.nextInt(10) == 0) swap(ts, i, i + 1); i += 2 }
    val id = Datasets.facebook(n, r.nextLong())
    i = n - 1
    while (i > 0) { swap(id, i, r.nextInt(i + 1)); i -= 1 }
    val qty = Array.fill(n)(1L + r.nextInt(100))
    new Events(ts, id, qty)
  }

  private def swap(a: Array[Long], i: Int, j: Int): Unit = { val t = a(i); a(i) = a(j); a(j) = t }

  /** A DataFrame over `ev` with `slices` partitions of consecutive rows, so
    * each written part file holds one slice in order.
    */
  def toDataFrame(spark: SparkSession, ev: Events, slices: Int): DataFrame = {
    val bounds = (0 to slices).map(k => (k.toLong * ev.n / slices).toInt)
    val parts = (0 until slices).map { k =>
      val (s, e) = (bounds(k), bounds(k + 1))
      (ev.ts.slice(s, e), ev.id.slice(s, e), ev.qty.slice(s, e))
    }
    val rows = spark.sparkContext.parallelize(parts, slices).flatMap { case (t, d, q) =>
      Iterator.tabulate(t.length)(i => Row(t(i), d(i), q(i)))
    }
    spark.createDataFrame(rows, Schema)
  }

  def total(ev: Events): Agg = select(ev, Long.MinValue, Long.MaxValue)

  /** The rows with `a <= ts <= b`. */
  def select(ev: Events, a: Long, b: Long): Agg = {
    var c = 0L; var st = 0L; var si = 0L; var sq = 0L
    var i = 0
    while (i < ev.n) {
      val t = ev.ts(i)
      if (t >= a && t <= b) { c += 1; st += t; si += ev.id(i); sq += ev.qty(i) }
      i += 1
    }
    Agg(c, st, si, sq)
  }
}

/** The seed's range queries: `ts BETWEEN a AND a + width`, where `width` is
  * a fixed share of the table's time span and `a` is drawn from the seed.
  */
final class RangeQueries(ev: Events, seed: Long) {
  val Share = 0.03
  private val (lo, hi) = (ev.ts.min, ev.ts.max)
  val width: Long = ((hi - lo) * Share).toLong
  private val starts: Array[Long] = {
    val r = new scala.util.Random(seed * 1_000_003L + 17)
    Array.fill(1 << 12)(lo + (r.nextDouble() * (hi - width - lo)).toLong)
  }
  private val expected = new java.util.HashMap[Int, Agg]()

  def bounds(k: Int): (Long, Long) = { val a = starts(k % starts.length); (a, a + width) }

  def oracle(k: Int): Agg = {
    val key = k % starts.length
    var e = expected.get(key)
    if (e == null) { val (a, b) = bounds(key); e = Events.select(ev, a, b); expected.put(key, e) }
    e
  }
}
