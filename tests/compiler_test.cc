/**
 * @file
 * Tests for the func-image compilation pipeline (Sec. 5).
 */

#include <gtest/gtest.h>

#include "catalyzer/runtime.h"
#include "sandbox/compiler.h"
#include "sandbox/pipelines.h"

namespace catalyzer::sandbox {
namespace {

class CompilerTest : public ::testing::Test
{
  protected:
    CompilerTest() : machine(42), registry(machine), compiler(machine) {}

    FunctionArtifacts &
    fn(const char *name)
    {
        return registry.artifactsFor(apps::appByName(name));
    }

    Machine machine;
    FunctionRegistry registry;
    FuncImageCompiler compiler;
};

TEST_F(CompilerTest, CompilesBothFormats)
{
    auto proto = compiler.compile(fn("c-hello"),
                                  snapshot::ImageFormat::CompressedProto);
    auto separated = compiler.compile(
        fn("c-hello"), snapshot::ImageFormat::SeparatedWellFormed);
    ASSERT_NE(proto, nullptr);
    ASSERT_NE(separated, nullptr);
    EXPECT_EQ(proto->format(), snapshot::ImageFormat::CompressedProto);
    EXPECT_EQ(separated->format(),
              snapshot::ImageFormat::SeparatedWellFormed);
    // The artifacts were populated for the boot paths.
    EXPECT_EQ(fn("c-hello").protoImage.get(), proto.get());
    EXPECT_EQ(fn("c-hello").separatedImage.get(), separated.get());
    EXPECT_EQ(machine.ctx().stats().value("snapshot.images_compiled"),
              2);
}

TEST_F(CompilerTest, ImageCapturesEntryPointState)
{
    auto image = compiler.compile(
        fn("python-hello"), snapshot::ImageFormat::SeparatedWellFormed);
    const auto &app = apps::appByName("python-hello");
    EXPECT_EQ(image->state().kernelGraph.objectCount() > 0, true);
    EXPECT_EQ(image->state().ioConns.size(), app.ioConnections);
    EXPECT_EQ(image->state().memoryPages, app.heapPages());
    EXPECT_DOUBLE_EQ(image->state().warmedPrepFraction, 0.0);
}

TEST_F(CompilerTest, MovedEntryPointIsRecorded)
{
    FuncEntryConfig entry;
    entry.prepFraction = 0.5;
    entry.trainingRequests = 2;
    auto image = compiler.compile(
        fn("pillow-rolling"), snapshot::ImageFormat::SeparatedWellFormed,
        entry);
    EXPECT_DOUBLE_EQ(image->state().warmedPrepFraction, 0.5);

    // Instances restored from it inherit the moved entry point, and so
    // do children sforked from a template built from it.
    core::CatalyzerRuntime runtime(machine);
    auto boot = runtime.bootCold(fn("pillow-rolling"));
    EXPECT_DOUBLE_EQ(boot.instance->prepFraction(), 0.5);
    auto fork = runtime.bootFork(fn("pillow-rolling"));
    EXPECT_DOUBLE_EQ(fork.instance->prepFraction(), 0.5);
}

TEST_F(CompilerTest, BadPrepFractionIsFatal)
{
    FuncEntryConfig entry;
    entry.prepFraction = 1.5;
    EXPECT_EXIT(compiler.compile(fn("c-hello"),
                                 snapshot::ImageFormat::CompressedProto,
                                 entry),
                ::testing::ExitedWithCode(1), "prepFraction");
}

TEST_F(CompilerTest, RecompilingReplacesTheImage)
{
    auto first = compiler.compile(
        fn("ds-text"), snapshot::ImageFormat::SeparatedWellFormed);
    auto second = compiler.compile(
        fn("ds-text"), snapshot::ImageFormat::SeparatedWellFormed);
    EXPECT_NE(first.get(), second.get());
    EXPECT_EQ(fn("ds-text").separatedImage.get(), second.get());
}

} // namespace
} // namespace catalyzer::sandbox
