package repro.lecoformat

import java.util
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.connector.catalog.{SupportsRead, Table, TableCapability, TableProvider}
import org.apache.spark.sql.connector.expressions.Transform
import org.apache.spark.sql.connector.read._
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.sources._
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.sql.util.CaseInsensitiveStringMap

/** DataSourceV2 read path for `leco` table directories (short name "leco"):
  * `spark.read.format("leco").load(dir)`.
  *
  * Supports column pruning and filter pushdown. Pushed range filters are
  * used for row-group zone-map skipping and encoding-level partition
  * skipping inside executors; all filters are also returned as residuals so
  * Spark re-evaluates them (correctness is never delegated to the pruning).
  */
class LecoDataSource extends TableProvider with DataSourceRegister {
  override def shortName(): String = "leco"

  private def pathOf(options: CaseInsensitiveStringMap): String = {
    val p = options.get("path")
    require(p != null, "leco source requires a path")
    p
  }

  override def inferSchema(options: CaseInsensitiveStringMap): StructType = {
    val files = LecoTable.partFiles(pathOf(options))
    require(files.nonEmpty, "empty leco table")
    val cols = new LecoFileReader(files(0)).columns
    StructType(cols.map(c => StructField(c, LongType, nullable = false)))
  }

  override def getTable(schema: StructType, partitioning: Array[Transform],
                        properties: util.Map[String, String]): Table =
    new LecoSparkTable(properties.get("path"), schema)
}

final class LecoSparkTable(path: String, schema: StructType) extends Table with SupportsRead {
  override def name(): String = s"leco:$path"
  override def schema(): StructType = schema
  override def capabilities(): util.Set[TableCapability] = Set(TableCapability.BATCH_READ).asJava
  override def newScanBuilder(options: CaseInsensitiveStringMap): ScanBuilder =
    new LecoScanBuilder(path, schema)
}

final class LecoScanBuilder(path: String, schema: StructType)
    extends ScanBuilder with SupportsPushDownFilters with SupportsPushDownRequiredColumns {
  private var required: StructType = schema
  private var pushed: Array[Filter] = Array.empty

  override def pushFilters(filters: Array[Filter]): Array[Filter] = {
    pushed = filters.filter(LecoScanBuilder.supported)
    filters // everything is residual: Spark re-applies for exactness
  }
  override def pushedFilters(): Array[Filter] = pushed
  override def pruneColumns(requiredSchema: StructType): Unit = required = requiredSchema
  override def build(): Scan = new LecoScan(path, required, pushed)
}

object LecoScanBuilder {
  def supported(f: Filter): Boolean = f match {
    case EqualTo(_, v: Number)              => v != null
    case GreaterThan(_, _: Number)          => true
    case GreaterThanOrEqual(_, _: Number)   => true
    case LessThan(_, _: Number)             => true
    case LessThanOrEqual(_, _: Number)      => true
    case And(l, r)                          => supported(l) && supported(r)
    case _                                  => false
  }

  /** Collapse supported filters into per-column [lo, hi] ranges. */
  def toRanges(filters: Array[Filter]): Map[String, (Long, Long)] = {
    val m = scala.collection.mutable.Map[String, (Long, Long)]()
    def merge(col: String, lo: Long, hi: Long): Unit = {
      val (l0, h0) = m.getOrElse(col, (Long.MinValue, Long.MaxValue))
      m(col) = (math.max(l0, lo), math.min(h0, hi))
    }
    def walk(f: Filter): Unit = f match {
      case EqualTo(c, v: Number)            => merge(c, v.longValue, v.longValue)
      case GreaterThan(c, v: Number)        => merge(c, v.longValue + 1, Long.MaxValue)
      case GreaterThanOrEqual(c, v: Number) => merge(c, v.longValue, Long.MaxValue)
      case LessThan(c, v: Number)           => merge(c, Long.MinValue, v.longValue - 1)
      case LessThanOrEqual(c, v: Number)    => merge(c, Long.MinValue, v.longValue)
      case And(l, r)                        => walk(l); walk(r)
      case _                                =>
    }
    filters.foreach(walk)
    m.toMap
  }
}

final case class LecoInputPartition(filePath: String) extends InputPartition

final class LecoScan(path: String, required: StructType, pushed: Array[Filter])
    extends Scan with Batch {
  override def readSchema(): StructType = required
  override def toBatch: Batch = this
  override def planInputPartitions(): Array[InputPartition] =
    LecoTable.partFiles(path).map(f => LecoInputPartition(f.getAbsolutePath): InputPartition)
  override def createReaderFactory(): PartitionReaderFactory =
    new LecoReaderFactory(required.fieldNames, LecoScanBuilder.toRanges(pushed))
}

final class LecoReaderFactory(cols: Array[String], ranges: Map[String, (Long, Long)])
    extends PartitionReaderFactory {
  override def createReader(partition: InputPartition): PartitionReader[InternalRow] =
    new LecoPartitionReader(partition.asInstanceOf[LecoInputPartition].filePath, cols, ranges)
}

/** Reads one part file row-group by row-group through the reader's
  * row-group scanner, with the pushed ranges as predicates (zone-map and
  * encoding-level skipping), then emits rows of the required columns.
  */
final class LecoPartitionReader(filePath: String, cols: Array[String],
                                ranges: Map[String, (Long, Long)])
    extends PartitionReader[InternalRow] {
  private val reader = new LecoFileReader(new java.io.File(filePath))
  // pushed ranges on columns this file lacks cannot prune it
  private val preds: Seq[(Int, ScanPredicate)] = ranges.toSeq.collect {
    case (col, (lo, hi)) if reader.columns.contains(col) => reader.colIndex(col) -> RangePredicate(lo, hi)
  }
  private val colIdx = cols.map(reader.colIndex)
  private var group = 0
  private var rows: Array[Array[Long]] = _ // row-major buffer of current group
  private var rowIdx = 0
  private var nRows = 0

  private def loadNextGroup(): Boolean = {
    while (group < reader.numGroups) {
      val g = group
      group += 1
      val sel = reader.selectRows(g, preds)
      if (!sel.exists(_.isEmpty)) {
        val colVals = colIdx.map(c => reader.readRows(g, c, sel))
        nRows = sel.fold(reader.groupRows(g))(_.length)
        rows = Array.tabulate(nRows)(i => colVals.map(_(i)))
        rowIdx = 0
        return true
      }
    }
    false
  }

  override def next(): Boolean = {
    if (rows != null && rowIdx < nRows) true
    else loadNextGroup()
  }

  override def get(): InternalRow = {
    val r = InternalRow.fromSeq(rows(rowIdx).toSeq)
    rowIdx += 1
    r
  }

  override def close(): Unit = ()
}
