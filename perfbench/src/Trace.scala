package perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call at a layer boundary. `op` is the query or write the call
  * belongs to, `parent` the enclosing span (-1 at the top), `n` the work it
  * did in the unit its layer counts (values, positions, rows or bytes).
  */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int, op: Int, n: Long) {
  def ns: Long = endNs - startNs
}

/** In-memory span recorder; spans are written out once, when the run ends. */
final class Tracer {
  val spans = new ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var nextId = 0

  /** Time `body` as a span of `n` units of work; returns its value. */
  def apply[T](name: String, op: Int, n: Long = 0L)(body: => T): T = counted(name, op)((body, n))

  /** Same as `apply`, for work whose count is known only after the call. */
  def counted[T](name: String, op: Int)(body: => (T, Long)): T = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    var n = 0L
    try { val (v, k) = body; n = k; v }
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      spans += Span(id, name, t0, t1, parent, op, n)
    }
  }

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  /** Total time of `name`'s spans divided by their total work, in ns. */
  def nsPer(name: String): Double = {
    val s = named(name)
    require(s.nonEmpty && s.map(_.n).sum > 0, s"no work recorded for span $name")
    s.map(_.ns).sum.toDouble / s.map(_.n).sum
  }

  /** Median span duration of `name`, in ms. */
  def medianMs(name: String): Double = Stats.median(named(name).map(_.ns / 1e6))

  def writeJsonl(file: java.io.File): Unit = {
    val w = new java.io.PrintWriter(file, "UTF-8")
    try spans.foreach { s =>
      w.println(s"""{"id":${s.id},"name":"${s.name}","start_ns":${s.startNs},"end_ns":${s.endNs},""" +
                s""""parent":${s.parent},"op":${s.op},"n":${s.n}}""")
    } finally w.close()
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    xs.sorted.apply(math.max(0, math.ceil(p * xs.length).toInt - 1))
  }
}

/** A metric line of the result: value and unit. */
final case class Metric(value: Double, unit: String)

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"metric value $d is not a number")
    java.lang.Double.toString(d)
  }

  def metrics(ms: collection.Seq[(String, Metric)]): String =
    ms.map { case (k, m) => s"${str(k)}: {${str("value")}: ${num(m.value)}, ${str("unit")}: ${str(m.unit)}}" }
      .mkString("{", ", ", "}")

  def obj(fields: collection.Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
