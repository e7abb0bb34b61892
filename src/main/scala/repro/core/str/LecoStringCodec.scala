package repro.core.str

import java.math.BigInteger
import repro.core.{BitPack, Codec, Partitioner}

/** A compressed string column chunk (shape mirrors [[repro.core.CompressedInts]]). */
trait CompressedStrings {
  def length: Int
  def sizeBytes: Long
  def get(i: Int): String
  def decompressAll(): Array[String]
}

trait StringCodec {
  def name: String
  def compress(values: Array[String]): CompressedStrings
  def ratio(values: Array[String]): Double = {
    val raw = values.iterator.map(_.length.toLong).sum
    compress(values).sizeBytes.toDouble / raw
  }
}

/** LeCo's string extension (§3.4): per fixed-length partition —
  *
  *  1. extract the common prefix into the header;
  *  2. map each remaining suffix to an order-preserving big integer over the
  *     partition's character set (exact base M, or M rounded up to a power
  *     of two so decode uses shifts instead of div/mod);
  *  3. pad to the partition's max suffix length, choosing the padding
  *     adaptively against the regression prediction so in-range predictions
  *     store a zero delta;
  *  4. fit the linear Regressor on the mapped integers (double-precision
  *     model, arbitrary-precision deltas) and bit-pack per-value suffix
  *     lengths alongside a fixed byte-width biased delta array.
  */
final class LecoStringCodec(val partitionSize: Int = 256, val powerOfTwoBase: Boolean = false)
    extends StringCodec {
  val name: String = if (powerOfTwoBase) "LeCo-str-pow2" else "LeCo-str"

  def compress(values: Array[String]): LecoStringCompressed =
    new LecoStringCompressed(values.length, partitionSize,
      Partitioner.fixed(values.length, partitionSize)(StringPartition.encode(values, _, _, powerOfTwoBase)))
}

/** One encoded string partition. `alphabet` lists the partition's characters
  * in sorted order (rank = digit value, order-preserving); `base` is the
  * radix actually used (alphabet.length, or the next power of two).
  */
final case class StringPartition(prefix: String, alphabet: Array[Char], base: Int,
                                 maxLen: Int, len: Int,
                                 theta0: Double, theta1: Double,
                                 bias: BigInteger, deltaWidth: Int, deltas: Array[Byte],
                                 lenWidth: Int, lens: Array[Long]) {
  private val baseBig = BigInteger.valueOf(base)
  private val pow2Shift = if (Integer.bitCount(base) == 1) Integer.numberOfTrailingZeros(base) else -1

  /** Fast path: when the mapped integers fit comfortably in a Long, decode
    * with primitive arithmetic (the paper's implementation uses machine
    * ints; BigInteger is only the fallback for very long strings).
    */
  private val fitsLong: Boolean = {
    var bound = 1.0
    var k = 0
    while (k < maxLen) { bound *= base; k += 1 }
    bound < 4.0e18 && deltaWidth <= 7 && bias.bitLength < 61
  }
  private val biasLong: Long = if (fitsLong) bias.longValue() else 0L

  @inline private def predict(j: Int): BigInteger =
    new java.math.BigDecimal(theta0 + theta1 * j).toBigInteger

  private def deltaAt(j: Int): BigInteger = {
    if (deltaWidth == 0) return BigInteger.ZERO
    val b = new Array[Byte](deltaWidth + 1) // leading 0 keeps it non-negative
    System.arraycopy(deltas, j * deltaWidth, b, 1, deltaWidth)
    new BigInteger(b)
  }

  def get(j: Int): String = {
    if (fitsLong) return getFast(j)
    val v    = predict(j).add(bias).add(deltaAt(j))
    val sLen = BitPack.read(lens, j, lenWidth).toInt
    val sb   = new StringBuilder(prefix)
    // Peel off digits most-significant first: digit k of a maxLen-digit number.
    var rest = v
    val digits = new Array[Int](maxLen)
    var k = maxLen - 1
    while (k >= 0) {
      if (pow2Shift >= 0) {
        digits(k) = rest.intValue() & (base - 1)
        rest = rest.shiftRight(pow2Shift)
      } else {
        val qr = rest.divideAndRemainder(baseBig)
        digits(k) = qr(1).intValue()
        rest = qr(0)
      }
      k -= 1
    }
    var d = 0
    while (d < sLen) { sb += alphabet(math.min(digits(d), alphabet.length - 1)); d += 1 }
    sb.toString
  }

  /** Primitive-arithmetic decode; bit-identical to the BigInteger path
    * (same double truncation, same biased delta).
    */
  private def getFast(j: Int): String = {
    var delta = 0L
    var k = j * deltaWidth
    val end = k + deltaWidth
    while (k < end) { delta = (delta << 8) | (deltas(k) & 0xffL); k += 1 }
    var v = (theta0 + theta1 * j).toLong + biasLong + delta
    val sLen = BitPack.read(lens, j, lenWidth).toInt
    val digits = new Array[Int](maxLen)
    var d = maxLen - 1
    if (pow2Shift >= 0) {
      while (d >= 0) { digits(d) = (v & (base - 1)).toInt; v >>= pow2Shift; d -= 1 }
    } else {
      while (d >= 0) { digits(d) = (v % base).toInt; v /= base; d -= 1 }
    }
    val out = new Array[Char](prefix.length + sLen)
    prefix.getChars(0, prefix.length, out, 0)
    d = 0
    while (d < sLen) {
      out(prefix.length + d) = alphabet(math.min(digits(d), alphabet.length - 1))
      d += 1
    }
    new String(out)
  }

  def sizeBytes: Long =
    Codec.LinearHeaderBytes + 2 + prefix.length + alphabet.length + 1 /*maxLen*/ +
      deltaWidth /*bias*/ + deltas.length.toLong + (len.toLong * lenWidth + 7) / 8
}

object StringPartition {
  def encode(values: Array[String], from: Int, until: Int, pow2: Boolean): StringPartition = {
    val n = until - from
    // 1. common prefix
    var prefix = values(from)
    var i = from + 1
    while (i < until && prefix.nonEmpty) {
      val v = values(i)
      var k = 0
      val m = math.min(prefix.length, v.length)
      while (k < m && prefix.charAt(k) == v.charAt(k)) k += 1
      prefix = prefix.substring(0, k)
      i += 1
    }
    val suffixes = Array.tabulate(n)(j => values(from + j).substring(prefix.length))
    val maxLen   = math.max(1, suffixes.iterator.map(_.length).max)
    // 2. character set
    val charSet  = suffixes.iterator.flatten.toSet
    val alphabet = (if (charSet.isEmpty) Set('a') else charSet).toArray.sorted
    val exactBase = alphabet.length
    val base =
      if (!pow2) exactBase
      else { var b = 1; while (b < exactBase) b <<= 1; b }
    val rank = alphabet.zipWithIndex.toMap
    val baseBig = BigInteger.valueOf(base)

    // 3. min- and max-padded mapped integers per value
    def mapped(s: String, padDigit: Int): BigInteger = {
      var v = BigInteger.ZERO
      var k = 0
      while (k < maxLen) {
        val d = if (k < s.length) rank(s.charAt(k)) else padDigit
        v = v.multiply(baseBig).add(BigInteger.valueOf(d))
        k += 1
      }
      v
    }
    val vMin = suffixes.map(mapped(_, 0))
    val vMax = suffixes.map(mapped(_, base - 1))

    // 4. fit on the min-padded values in double space
    val ys = vMin.map(_.doubleValue())
    val (t0raw, t1) = lsm(ys)
    def predictRaw(j: Int): BigInteger = new java.math.BigDecimal(t0raw + t1 * j).toBigInteger

    // adaptive padding: clamp the prediction into [vMin, vMax]
    val rawDeltas = Array.tabulate(n) { j =>
      val p = predictRaw(j)
      if (p.compareTo(vMin(j)) < 0) vMin(j).subtract(p)
      else if (p.compareTo(vMax(j)) > 0) vMax(j).subtract(p)
      else BigInteger.ZERO
    }
    val bias  = rawDeltas.min
    val maxRel = rawDeltas.max.subtract(bias)
    val width  = (maxRel.bitLength + 7) / 8
    val deltas = new Array[Byte](n * width)
    var j = 0
    while (j < n) {
      val rel = rawDeltas(j).subtract(bias)
      val src = rel.toByteArray // big-endian two's complement, non-negative
      val off = (j + 1) * width - math.min(src.length, width)
      var k = math.max(0, src.length - width)
      var o = off
      while (k < src.length) { deltas(o) = src(k); o += 1; k += 1 }
      j += 1
    }
    val lenWidth = BitPack.bitsFor(maxLen.toLong)
    val lens = new Array[Long](BitPack.wordsFor(n, lenWidth))
    j = 0
    while (j < n) { BitPack.write(lens, j.toLong * lenWidth, lenWidth, suffixes(j).length.toLong); j += 1 }
    StringPartition(prefix, alphabet, base, maxLen, n, t0raw, t1, bias, width, deltas, lenWidth, lens)
  }

  /** Least-squares fit over positions 0..n-1 (double precision). */
  private def lsm(ys: Array[Double]): (Double, Double) = {
    val n = ys.length
    if (n == 1) return (ys(0), 0.0)
    val sumX  = n.toDouble * (n - 1) / 2.0
    val sumXX = (n - 1).toDouble * n * (2L * n - 1) / 6.0
    var sumY  = 0.0; var sumXY = 0.0
    var i = 0
    while (i < n) { sumY += ys(i); sumXY += i * ys(i); i += 1 }
    val denom = n * sumXX - sumX * sumX
    val t1    = if (denom == 0) 0.0 else (n * sumXY - sumX * sumY) / denom
    (sumY / n - t1 * sumX / n, t1)
  }
}

final class LecoStringCompressed(val n: Int, val partSize: Int,
                                 val parts: Array[StringPartition]) extends CompressedStrings {
  def length: Int = n
  def sizeBytes: Long = parts.iterator.map(_.sizeBytes).sum
  def get(i: Int): String = parts(i / partSize).get(i % partSize)
  def decompressAll(): Array[String] = Array.tabulate(n)(get)
}
