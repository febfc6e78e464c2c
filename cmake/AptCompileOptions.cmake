# Shared compile settings for every apt target, carried by the interface
# target apt::cxx_options. Linking it pins the language level (the code
# uses std::span and defaulted operator==, so a toolchain defaulting to an
# older -std hard-fails without this) and applies the warning/sanitizer/
# tuning toggles selected at configure time.

add_library(apt_cxx_options INTERFACE)
add_library(apt::cxx_options ALIAS apt_cxx_options)

target_compile_features(apt_cxx_options INTERFACE cxx_std_20)
set(CMAKE_CXX_EXTENSIONS OFF)

if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(apt_cxx_options INTERFACE -Wall -Wextra -Wpedantic)
  # Float bits must not depend on which functions carry an FMA-capable
  # target attribute (the AVX2 and AVX-512 micro-kernels): GCC's default
  # -ffp-contract=fast fuses a multiply and an add into one FMA inside
  # such a function, even when they are two separate intrinsics. Explicit
  # FMA intrinsics are unaffected.
  target_compile_options(apt_cxx_options INTERFACE -ffp-contract=off)
  if(APT_WERROR)
    target_compile_options(apt_cxx_options INTERFACE -Werror)
  endif()
  if(APT_NATIVE)
    target_compile_options(apt_cxx_options INTERFACE -march=native)
  endif()
  # Sanitizer selection: ASan and UBSan compose into one -fsanitize list;
  # TSan is its own runtime (mutual exclusion with ASan is enforced at
  # configure time in the root CMakeLists).
  set(_apt_san "")
  if(APT_ASAN)
    list(APPEND _apt_san address)
  endif()
  if(APT_UBSAN)
    list(APPEND _apt_san undefined)
  endif()
  if(APT_TSAN)
    list(APPEND _apt_san thread)
  endif()
  if(_apt_san)
    list(JOIN _apt_san "," _apt_san_list)
    set(_apt_san_flags -fsanitize=${_apt_san_list} -fno-omit-frame-pointer
                       -fno-sanitize-recover=all)
    target_compile_options(apt_cxx_options INTERFACE ${_apt_san_flags})
    target_link_options(apt_cxx_options INTERFACE ${_apt_san_flags})
  endif()
elseif(MSVC)
  target_compile_options(apt_cxx_options INTERFACE /W4 /permissive-)
  if(APT_WERROR)
    target_compile_options(apt_cxx_options INTERFACE /WX)
  endif()
  if(APT_ASAN)
    target_compile_options(apt_cxx_options INTERFACE /fsanitize=address)
  endif()
endif()

# apt_add_module(<name> SOURCES <files...> [DEPS <targets...>])
#
# Declares the static library apt_<name> (alias apt::<name>) for one
# src/<name> directory. Every module exports the repository's src/ root as
# its include directory, so "#include \"core/controller.hpp\"" works from
# any dependent, and links apt::cxx_options so language level and
# diagnostics are uniform across the layering.
function(apt_add_module name)
  cmake_parse_arguments(ARG "" "" "SOURCES;DEPS" ${ARGN})
  add_library(apt_${name} STATIC ${ARG_SOURCES})
  add_library(apt::${name} ALIAS apt_${name})
  target_include_directories(apt_${name} PUBLIC ${PROJECT_SOURCE_DIR}/src)
  target_link_libraries(apt_${name} PUBLIC apt::cxx_options ${ARG_DEPS})
endfunction()
