package repro.core.baseline

import repro.core._
import repro.lecoformat.ScanPredicate

/** Frame-of-Reference (FOR): each fixed-length frame stores its minimum plus
  * bit-packed non-negative offsets. Under LeCo this is the constant-model
  * special case (§2); it is the random-access speed floor the paper compares
  * against.
  */
final class ForCodec(val partitionSize: Int = 0) extends IntCodec {
  val name = "FOR"

  def compress(values: Array[Long]): ForCompressed = {
    val size =
      if (partitionSize > 0) partitionSize
      else Partitioner.searchFixedSize(values, ForCodec.costAt)
    val n       = values.length
    val nParts  = (n + size - 1) / size
    val mins    = new Array[Long](nParts)
    val widths  = new Array[Int](nParts)
    val words   = new Array[Array[Long]](nParts)
    var p = 0
    var s = 0
    while (s < n) {
      val e   = math.min(s + size, n)
      val (mn, mx) = Regressor.minMax(values, s, e)
      mins(p) = mn; widths(p) = BitPack.bitsFor(mx - mn)
      val w = new Array[Long](BitPack.wordsFor(e - s, widths(p)))
      var j = s
      while (j < e) { BitPack.write(w, (j - s).toLong * widths(p), widths(p), values(j) - mn); j += 1 }
      words(p) = w
      p += 1; s = e
    }
    new ForCompressed(n, size, mins, widths, words)
  }
}

object ForCodec {
  def costAt(sample: Array[Long], l: Int): Long =
    Partitioner.fixedCost(sample.length, l) { (s, e) =>
      Codec.SimpleHeaderBytes + ((e - s).toLong * Regressor.fitConstant(sample, s, e).bitWidth + 7) / 8
    }
}

final class ForCompressed(val n: Int, val partSize: Int, val mins: Array[Long],
                          val widths: Array[Int], val words: Array[Array[Long]])
    extends CompressedInts {
  def length: Int = n
  def sizeBytes: Long = {
    var total = 0L
    var p = 0
    while (p < mins.length) {
      val len = math.min(partSize, n - p * partSize)
      total += Codec.SimpleHeaderBytes + (len.toLong * widths(p) + 7) / 8
      p += 1
    }
    total
  }
  def get(i: Int): Long = {
    val p = i / partSize
    mins(p) + BitPack.read(words(p), i % partSize, widths(p))
  }
  def decodeAll(): Array[Long] = {
    val out = new Array[Long](n)
    var i = 0
    while (i < n) {
      val p = i / partSize; val b = widths(p); val w = words(p); val mn = mins(p)
      val e = math.min(i + partSize, n)
      var j = i
      while (j < e) { out(j) = mn + BitPack.read(w, j - i, b); j += 1 }
      i = e
    }
    out
  }

  /** Partition-header skipping: a frame's values lie in [min, min + 2^w). */
  override def scan(pred: ScanPredicate): Array[Int] = {
    val out = new scala.collection.mutable.ArrayBuffer[Int]()
    var p = 0
    while (p < mins.length) {
      val s = p * partSize
      val e = math.min(s + partSize, n)
      val lo = mins(p)
      val hi = lo + (if (widths(p) >= 63) Long.MaxValue - lo else (1L << widths(p)) - 1)
      if (pred.mayMatch(lo, hi)) {
        val w = words(p); val b = widths(p)
        var j = s
        while (j < e) { if (pred.test(lo + BitPack.read(w, j - s, b))) out += j; j += 1 }
      }
      p += 1
    }
    out.toArray
  }
}
