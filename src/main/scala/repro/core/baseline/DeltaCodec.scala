package repro.core.baseline

import repro.core._

/** Shared encoding of one Delta partition: explicit first value + zigzag
  * adjacent diffs bit-packed at the partition's max diff width. Random
  * access must decode the partition prefix sequentially — the order-of-
  * magnitude access penalty §4.3.2 reports.
  */
final case class DeltaPartition(first: Long, width: Int, len: Int, words: Array[Long]) {
  @inline private def unzig(z: Long): Long = (z >>> 1) ^ -(z & 1L)

  /** Decode value at in-partition position `j` (O(j) scan). */
  def get(j: Int): Long = {
    var v = first
    var k = 0
    while (k < j) { v += unzig(BitPack.read(words, k, width)); k += 1 }
    v
  }

  def decodeInto(out: Array[Long], outOff: Int): Unit = {
    var v = first
    out(outOff) = v
    var k = 0
    while (k < len - 1) { v += unzig(BitPack.read(words, k, width)); out(outOff + k + 1) = v; k += 1 }
  }

  def sizeBytes: Long = Codec.SimpleHeaderBytes + ((len - 1).toLong * width + 7) / 8
}

object DeltaPartition {
  @inline def zigzag(d: Long): Long = (d << 1) ^ (d >> 63)

  def encode(values: Array[Long], from: Int, until: Int): DeltaPartition = {
    val n = until - from
    var maxZ = 0L
    var k = from + 1
    while (k < until) { val z = zigzag(values(k) - values(k - 1)); if (z > maxZ) maxZ = z; k += 1 }
    val b = BitPack.bitsFor(maxZ)
    val words = new Array[Long](BitPack.wordsFor(math.max(0, n - 1), b))
    k = from + 1
    while (k < until) {
      BitPack.write(words, (k - from - 1).toLong * b, b, zigzag(values(k) - values(k - 1)))
      k += 1
    }
    DeltaPartition(values(from), b, n, words)
  }
}

/** Delta Encoding with fixed-length partitions (Delta-fix). */
final class DeltaFixCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "Delta-fix"

  def compress(values: Array[Long]): DeltaFixCompressed = {
    val size =
      if (partitionSize > 0) partitionSize
      else Partitioner.searchFixedSize(values, DeltaFixCodec.costAt)
    val n = values.length
    val parts = new Array[DeltaPartition]((n + size - 1) / size)
    var p = 0; var s = 0
    while (s < n) { parts(p) = DeltaPartition.encode(values, s, math.min(s + size, n)); p += 1; s += size }
    new DeltaFixCompressed(n, size, parts)
  }
}

object DeltaFixCodec {
  def costAt(sample: Array[Long], l: Int): Long = {
    var total = 0L
    var s = 0
    while (s < sample.length) {
      val e = math.min(s + l, sample.length)
      total += DeltaPartition.encode(sample, s, e).sizeBytes
      s = e
    }
    total
  }
}

final class DeltaFixCompressed(val n: Int, val partSize: Int,
                               val parts: Array[DeltaPartition]) extends CompressedInts {
  def length: Int = n
  def sizeBytes: Long = parts.iterator.map(_.sizeBytes).sum
  override def modelBytes: Long = parts.length.toLong * Codec.SimpleHeaderBytes
  def get(i: Int): Long = parts(i / partSize).get(i % partSize)
  def decodeAll(): Array[Long] = {
    val out = new Array[Long](n)
    var off = 0; var k = 0
    while (k < parts.length) { parts(k).decodeInto(out, off); off += parts(k).len; k += 1 }
    out
  }
}

/** Delta Encoding with LeCo's variable-length Partitioner in Delta mode
  * (Delta-var, §3.2.2 "Delta Encoding" worked example).
  */
final class DeltaVarCodec(val tau: Double = 0.1) extends IntCodec {
  val name = "Delta-var"

  def compress(values: Array[Long]): DeltaVarCompressed = {
    val ps = Partitioner.variable(values, Partitioner.DeltaMode, tau)
    val parts = new Array[DeltaPartition](ps.count)
    var k = 0
    while (k < ps.count) { parts(k) = DeltaPartition.encode(values, ps.starts(k), ps.end(k)); k += 1 }
    new DeltaVarCompressed(values.length, ps.starts, parts)
  }
}

final class DeltaVarCompressed(val n: Int, val starts: Array[Int],
                               val parts: Array[DeltaPartition]) extends CompressedInts {
  def length: Int = n
  def sizeBytes: Long = parts.iterator.map(_.sizeBytes).sum
  override def modelBytes: Long = parts.length.toLong * Codec.SimpleHeaderBytes
  @inline def partitionOf(i: Int): Int = {
    var lo = 0; var hi = starts.length - 1
    while (lo < hi) {
      val mid = (lo + hi + 1) >>> 1
      if (starts(mid) <= i) lo = mid else hi = mid - 1
    }
    lo
  }
  def get(i: Int): Long = { val k = partitionOf(i); parts(k).get(i - starts(k)) }
  def decodeAll(): Array[Long] = {
    val out = new Array[Long](n)
    var k = 0
    while (k < parts.length) { parts(k).decodeInto(out, starts(k)); k += 1 }
    out
  }
}
