package repro.core

import scala.collection.mutable.ArrayBuffer
import repro.lecoformat.{ScanPredicate, TimeOfDayPredicate}

/** One encoded LeCo partition: linear model + fixed-width biased deltas +
  * the θ1-accumulation error-correction list (§3.3).
  *
  * `corrections` holds the in-partition positions where sequential decode via
  * `pred += θ1` floors differently from direct inference `floor(θ0 + θ1·i)`;
  * at those positions the decoder recomputes directly and resynchronizes.
  */
final case class LecoPartition(theta0: Double, theta1: Double, width: Int,
                               len: Int, words: Array[Long], corrections: Array[Int])
    extends EncodedPartition {
  @inline def predict(j: Int): Long = math.floor(theta0 + theta1 * j).toLong
  @inline def get(j: Int): Long = predict(j) + BitPack.read(words, j, width)

  /** Sequential decode with the accumulation optimization (one FP add per
    * value instead of mul+add), writing into `out(outOff ...)`.
    */
  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    var acc  = theta0
    var ci   = 0
    var j    = 0
    while (j < len) {
      var base = math.floor(acc).toLong
      if (ci < corrections.length && corrections(ci) == j) {
        base = predict(j) // resynchronize at a recorded precision slip
        acc  = theta0 + theta1 * j
        ci += 1
      }
      out(outOff + j) = base + BitPack.read(words, j, width)
      acc += theta1
      j += 1
    }
  }

  def payloadBytes: Long = (len.toLong * width + 7) / 8
  def sizeBytes: Long = Codec.LinearHeaderBytes + payloadBytes + corrections.length.toLong * 4
}

object LecoPartition {
  /** Fit + encode one partition of `values(from until until)`. */
  def encode(values: Array[Long], from: Int, until: Int): LecoPartition = {
    val fit   = Regressor.fitLinear(values, from, until)
    val m     = fit.model
    val n     = until - from
    val words = new Array[Long](BitPack.wordsFor(n, fit.bitWidth))
    val corr  = ArrayBuffer[Int]()
    var acc   = m.theta0
    var j = 0
    while (j < n) {
      val direct = m.predict(j)
      if (math.floor(acc).toLong != direct) { corr += j; acc = m.theta0 + m.theta1 * j }
      BitPack.write(words, j.toLong * fit.bitWidth, fit.bitWidth, values(from + j) - direct)
      acc += m.theta1
      j += 1
    }
    LecoPartition(m.theta0, m.theta1, fit.bitWidth, n, words, corr.toArray)
  }
}

/** LeCo with fixed-length partitions (LeCo-fix, §3.2.1).
  *
  * `partitionSize = 0` triggers the sampling-based size search. Random access
  * locates the partition by division — no metadata search.
  */
final class LecoFixCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "LeCo-fix"

  def compress(values: Array[Long]): LecoFixCompressed = {
    val size =
      if (partitionSize > 0) partitionSize
      else Partitioner.searchFixedSize(values, LecoFixCodec.costAt)
    new LecoFixCompressed(values.length, size,
      Partitioner.fixed(values.length, size)(LecoPartition.encode(values, _, _)))
  }
}

object LecoFixCodec {
  /** Compressed bytes of `sample` at partition size `l` — the search cost fn. */
  def costAt(sample: Array[Long], l: Int): Long =
    Partitioner.fixedCost(sample.length, l) { (s, e) =>
      Codec.LinearHeaderBytes + ((e - s).toLong * Regressor.fitLinear(sample, s, e).bitWidth + 7) / 8
    }
}

final class LecoFixCompressed(n: Int, val partSize: Int, parts: Array[LecoPartition])
    extends Partitioned(n, parts) {
  override def modelBytes: Long = parts.length.toLong * Codec.LinearHeaderBytes
  def get(i: Int): Long = parts(i / partSize).get(i % partSize)

  /** Partition-header skipping plus LeCo's in-partition computation pruning
    * (§5.1.1): model prediction is a lower bound of the value (deltas are
    * biased non-negative), so with θ1 > 0 the scanner jumps over position
    * ranges whose value interval provably misses the predicate window.
    */
  override def scan(pred: ScanPredicate): Array[Int] = {
    val out = new ArrayBuffer[Int]()
    var p = 0
    while (p < parts.length) {
      val part = parts(p)
      val s = p * partSize
      val maxDelta = if (part.width >= 63) Long.MaxValue / 2 else (1L << part.width) - 1
      val pLo = math.min(part.predict(0), part.predict(part.len - 1))
      val pHi = math.max(part.predict(0), part.predict(part.len - 1)) + maxDelta
      if (pred.mayMatch(pLo, pHi)) {
        val jumpable = part.theta1 > 0
        var j = 0
        while (j < part.len) {
          val lo = part.predict(j)
          pred match {
            case t: TimeOfDayPredicate if jumpable && t.nextMatch(lo) > lo + maxDelta =>
              // no value at or after j can match before the next window:
              // values at positions j..k-1 all lie in [lo, nextMatch).
              val target = t.nextMatch(lo) - maxDelta
              val skip = math.max(1L, ((target - part.theta0) / part.theta1).toLong - j)
              j += math.min(skip, (part.len - j).toLong).toInt
            case _ =>
              // value = lo + delta: reuse the bound instead of a second predict
              if (pred.test(lo + BitPack.read(part.words, j, part.width))) out += s + j
              j += 1
          }
        }
      }
      p += 1
    }
    out.toArray
  }
}

/** LeCo with variable-length partitions (LeCo-var, §3.2.2): greedy
  * split/merge boundaries; random access binary-searches the partition start
  * index (the paper uses ALEX for this lower-bound search; a branchless
  * binary search stands in — same asymptotics, §4.3.2's extra ~35–90 ns).
  */
final class LecoVarCodec(val tau: Double = 0.1) extends IntCodec {
  val name = "LeCo-var"

  def compress(values: Array[Long]): LecoVarCompressed = {
    val ps = Partitioner.variable(values, Partitioner.LinearMode, tau)
    new LecoVarCompressed(values.length, ps.starts, ps.encode(LecoPartition.encode(values, _, _)))
  }
}

final class LecoVarCompressed(n: Int, starts: Array[Int], parts: Array[LecoPartition])
    extends VarPartitioned(n, starts, parts) {
  override def modelBytes: Long = parts.length.toLong * Codec.LinearHeaderBytes
  def get(i: Int): Long = { val k = partitionOf(i); parts(k).get(i - starts(k)) }
}
